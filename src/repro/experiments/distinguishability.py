"""Packet-size distinguishability across the compared schemes.

A passive network observer sees every transmission's (sender, receiver,
size) triple but no payload bytes.  If on-wire sizes vary with a packet's
position along the route — classic onion setup packets shrink by one layer
per hop — the observer can guess *where in a route* a packet is from its
length alone, which is exactly the linkability Sphinx's constant-size
packets are designed to remove.

This module measures that leak for every scheme over the real overlay
substrate:

1. :class:`RecordingOverlayNetwork` — the discrete-event substrate with a
   wiretap: every transmission's (sender, receiver, size) is appended to
   ``records``.  Every blob/packet helper funnels through
   :meth:`~repro.overlay.node.SimulatedOverlayNetwork.transmit_batch`, so
   overriding that one method observes everything.
2. :func:`observe_transfer` — drive one scheme's transfer through the
   unified runtime interface and split the tap into a *setup* phase and a
   *data* phase (the phases leak independently: data cells dominate the
   packet count, while onion routing's leak lives in its shrinking setup
   onions).
3. :func:`size_position_advantage` — the attacker model: assign every
   observed packet a hop position (BFS distance of its sender from the
   source stage over the observed edges), then score a maximum-a-posteriori
   guesser that maps each distinct size to its most common position.  The
   *advantage* normalises that accuracy against the blind prior (always
   guess the most common position): 0 = sizes reveal nothing beyond the
   prior, 1 = sizes identify the position of every packet.
4. :func:`hop_size_unlinkability` — one row per (scheme, path length):
   per-phase advantages, per-phase distinct-size counts, and the combined
   ``unlinkability`` score ``1 - max(setup_advantage, data_advantage)``.

Registered as the ``distinguishability`` experiment family: deterministic
and simulator-only — it runs through the pool like every other family.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque

import numpy as np

from ..overlay.node import SimulatedOverlayNetwork
from ..overlay.profiles import LAN_PROFILE, OverlayProfile
from .registry import Experiment, register
from .throughput import SCHEMES, connection_bps_for, prepare_scheme_transfer
from .trials import spawn_seed


class RecordingOverlayNetwork(SimulatedOverlayNetwork):
    """The simulated substrate with a passive wiretap on every transmission.

    ``records`` collects (sender, receiver, size_bytes) in transmission
    order; the tap changes no timing, accounting or delivery behaviour.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records: list[tuple[str, str, int]] = []

    def transmit_batch(
        self, sender, receiver, sizes, on_delivered, sender_cpu_seconds=None
    ):
        self.records.extend((sender, receiver, int(size)) for size in sizes)
        return super().transmit_batch(
            sender, receiver, sizes, on_delivered,
            sender_cpu_seconds=sender_cpu_seconds,
        )


def observe_transfer(
    scheme: str,
    profile: OverlayProfile,
    path_length: int,
    d: int = 2,
    d_prime: int = 3,
    num_messages: int = 24,
    message_bytes: int = 512,
    seed: int = 0,
) -> tuple[list[tuple[str, str, int]], list[tuple[str, str, int]], list[str]]:
    """Run one transfer under the wiretap; returns (setup, data, sources).

    ``setup`` holds every transmission observed while the route was being
    established, ``data`` everything observed while the message burst
    drained, and ``sources`` the scheme's source-stage addresses (the BFS
    anchor for hop positions).
    """
    substrate, runtime, relays, destination = prepare_scheme_transfer(
        scheme,
        profile,
        path_length,
        d,
        d_prime,
        seed,
        "batched",
        "sim",
        substrate_factory=lambda network: RecordingOverlayNetwork(
            network, connection_bps=connection_bps_for(profile)
        ),
    )
    try:
        runtime.establish(relays, destination)
        substrate.sim.run()
        setup_records = list(substrate.records)
        substrate.records.clear()
        runtime.send_messages([bytes(message_bytes)] * num_messages)
        substrate.sim.run()
        data_records = list(substrate.records)
    finally:
        substrate.close()
    source_stage, _relays, _destination = SCHEMES[scheme].address_plan(
        path_length, d_prime
    )
    return setup_records, data_records, source_stage


def hop_positions(
    records: list[tuple[str, str, int]], sources: list[str]
) -> dict[str, int]:
    """BFS distance of every observed sender from the source stage.

    Edges are the observed (sender -> receiver) pairs; the source stage sits
    at distance 0, so a packet's hop position is its sender's distance.
    Neighbours expand in sorted order, keeping the walk deterministic.
    """
    adjacency: dict[str, set[str]] = defaultdict(set)
    for sender, receiver, _size in records:
        adjacency[sender].add(receiver)
    distance = {address: 0 for address in sources}
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        for neighbour in sorted(adjacency.get(node, ())):
            if neighbour not in distance:
                distance[neighbour] = distance[node] + 1
                queue.append(neighbour)
    return distance


def size_position_advantage(
    records: list[tuple[str, str, int]], sources: list[str]
) -> float:
    """The attacker's advantage at placing packets on a route by size alone.

    The MAP guesser maps each observed size to that size's most common hop
    position; its accuracy is normalised against the blind prior (always
    guess the overall most common position) into ``[0, 1]``:
    ``(map_accuracy - prior) / (1 - prior)``.  Constant-size schemes give
    the guesser exactly the prior — advantage 0.
    """
    distance = hop_positions(records, sources)
    pairs = [
        (size, distance[sender])
        for sender, _receiver, size in records
        if sender in distance
    ]
    if not pairs:
        return 0.0
    by_size: dict[int, Counter] = defaultdict(Counter)
    positions: Counter = Counter()
    for size, hop in pairs:
        by_size[size][hop] += 1
        positions[hop] += 1
    total = len(pairs)
    map_accuracy = sum(max(counter.values()) for counter in by_size.values()) / total
    prior = max(positions.values()) / total
    if prior >= 1.0:
        return 0.0
    advantage = (map_accuracy - prior) / (1.0 - prior)
    return float(min(max(advantage, 0.0), 1.0))


def hop_size_unlinkability(
    scheme: str,
    profile: OverlayProfile,
    path_length: int,
    d: int = 2,
    d_prime: int = 3,
    num_messages: int = 24,
    message_bytes: int = 512,
    seed: int = 0,
) -> dict:
    """One distinguishability row: per-phase advantages and the combined score.

    ``unlinkability = 1 - max(setup_advantage, data_advantage)``: the phases
    are scored separately because data cells dominate the packet count — a
    pooled score would let a million constant-size cells wash out a
    perfectly position-revealing setup phase.
    """
    setup_records, data_records, sources = observe_transfer(
        scheme,
        profile,
        path_length,
        d=d,
        d_prime=d_prime,
        num_messages=num_messages,
        message_bytes=message_bytes,
        seed=seed,
    )
    setup_advantage = size_position_advantage(setup_records, sources)
    data_advantage = size_position_advantage(data_records, sources)
    return {
        "scheme": scheme,
        "path_length": path_length,
        "setup_packets": len(setup_records),
        "data_packets": len(data_records),
        "setup_distinct_sizes": len({size for _s, _r, size in setup_records}),
        "data_distinct_sizes": len({size for _s, _r, size in data_records}),
        "setup_advantage": setup_advantage,
        "data_advantage": data_advantage,
        "unlinkability": 1.0 - max(setup_advantage, data_advantage),
    }


def _distinguishability_trials(scale: float) -> list[dict]:
    num_messages = max(int(40 * scale), 8)
    return [
        {
            "scheme": scheme,
            "path_length": length,
            "d": 2,
            "d_prime": 3,
            "num_messages": num_messages,
            "message_bytes": 512,
        }
        for scheme in SCHEMES
        for length in (3, 5)
    ]


def _distinguishability_run(params: dict, rng: np.random.Generator) -> dict:
    return hop_size_unlinkability(
        params["scheme"],
        LAN_PROFILE,
        params["path_length"],
        d=params["d"],
        d_prime=params["d_prime"],
        num_messages=params["num_messages"],
        message_bytes=params["message_bytes"],
        seed=spawn_seed(rng),
    )


register(
    Experiment(
        name="distinguishability",
        title="Packet-size distinguishability: hop-position leakage per scheme",
        build_trials=_distinguishability_trials,
        run_trial=_distinguishability_run,
    )
)
