"""Churn-prone transfer simulation (§8.2, Fig. 17).

The question the paper asks: *given PlanetLab-like churn, what is the
probability of completing a 30-minute anonymous session?*  We answer it with
a Monte-Carlo over node lifetimes drawn from a churn model:

* **standard onion routing** — one path of ``L`` relays; the session
  completes only if every relay outlives it;
* **onion routing + erasure codes** — ``d'`` node-disjoint onion paths, any
  ``d`` of which must survive intact;
* **information slicing** — ``L`` stages of ``d'`` relays with in-network
  regeneration (§4.4.1): the session survives as long as every stage retains
  at least ``d`` live relays, because surviving relays keep re-creating the
  lost redundancy for downstream stages.

The same trials can optionally be cross-checked against the packet-level
protocol via :func:`packet_level_success` (used in the integration tests),
which replays the failure pattern with the real relay engines on
:class:`~repro.overlay.node.SlicingRuntime` over the discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import SimulationError
from ..core.source import Source
from ..overlay.churn import ChurnModel
from ..overlay.network import NodeResources, uniform_network
from ..overlay.node import SimulatedOverlayNetwork, SlicingRuntime


@dataclass(frozen=True)
class TransferResult:
    """Success probabilities measured for one redundancy configuration."""

    redundancy: float
    d: int
    d_prime: int
    information_slicing: float
    onion_erasure: float
    standard_onion: float
    trials: int


def slicing_transfer_succeeds(stage_failures: np.ndarray, d: int) -> bool:
    """Information slicing succeeds iff every stage keeps >= d live relays.

    ``stage_failures`` has shape (L, d'); True marks a relay that fails
    before the session completes.
    """
    alive_per_stage = (~stage_failures).sum(axis=1)
    return bool(np.all(alive_per_stage >= d))


def onion_erasure_transfer_succeeds(path_failures: np.ndarray, d: int) -> bool:
    """Onion + erasure codes succeeds iff >= d of the d' paths stay fully alive.

    ``path_failures`` has shape (d', L).
    """
    alive_paths = (~path_failures.any(axis=1)).sum()
    return bool(alive_paths >= d)


def standard_onion_transfer_succeeds(path_failures: np.ndarray) -> bool:
    """Plain onion routing succeeds iff its single path stays fully alive."""
    return not bool(path_failures.any())


def simulate_transfers(
    churn: ChurnModel,
    session_seconds: float,
    path_length: int,
    d: int,
    d_prime: int,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
) -> TransferResult:
    """Monte-Carlo the three schemes under identical churn and redundancy."""
    rng = np.random.default_rng() if rng is None else rng
    slicing_successes = 0
    erasure_successes = 0
    onion_successes = 0
    for _ in range(trials):
        slicing_failures = churn.sample_failures(
            path_length * d_prime, session_seconds, rng
        ).reshape(path_length, d_prime)
        slicing_successes += int(slicing_transfer_succeeds(slicing_failures, d))

        erasure_failures = churn.sample_failures(
            d_prime * path_length, session_seconds, rng
        ).reshape(d_prime, path_length)
        erasure_successes += int(onion_erasure_transfer_succeeds(erasure_failures, d))

        onion_failures = churn.sample_failures(path_length, session_seconds, rng)
        onion_successes += int(standard_onion_transfer_succeeds(onion_failures))
    return TransferResult(
        redundancy=(d_prime - d) / d,
        d=d,
        d_prime=d_prime,
        information_slicing=slicing_successes / trials,
        onion_erasure=erasure_successes / trials,
        standard_onion=onion_successes / trials,
        trials=trials,
    )


def sweep_redundancy(
    churn: ChurnModel,
    session_seconds: float,
    path_length: int,
    d: int,
    d_primes: list[int],
    trials: int = 1000,
    seed: int = 23,
) -> list[TransferResult]:
    """Fig. 17: transfer success probability across redundancy levels."""
    results = []
    for index, d_prime in enumerate(d_primes):
        rng = np.random.default_rng(seed + index)
        results.append(
            simulate_transfers(
                churn, session_seconds, path_length, d, d_prime, trials, rng
            )
        )
    return results


def packet_level_success(
    path_length: int,
    d: int,
    d_prime: int,
    failed_stage_positions: list[tuple[int, int]],
    message: bytes = b"payload",
    seed: int = 5,
) -> bool:
    """Replay a failure pattern on the real protocol over the simulated overlay.

    ``failed_stage_positions`` lists (stage, position) pairs — 1-based stages
    — whose relay dies after route setup but before the data phase.  Returns
    True iff the destination still decodes the message.  Used to validate
    that the lightweight Monte-Carlo model and the packet-level protocol
    agree on what survives.
    """
    source_stage = ["source", *(f"pseudo-{i}" for i in range(d_prime - 1))]
    relays = [f"relay-{i}" for i in range(path_length * d_prime * 3)]
    destination = "destination"
    # Place the destination in the last stage (as the paper does for its
    # measurements) so the lightweight "every stage needs >= d live relays"
    # model and the packet-level outcome agree on what counts as success.
    for attempt in range(200):
        source = Source(
            source_stage[0],
            source_stage[1:],
            d=d,
            d_prime=d_prime,
            path_length=path_length,
            rng=np.random.default_rng(seed + attempt),
        )
        flow = source.establish_flow(relays, destination)
        if flow.graph.destination_stage == path_length:
            break
    else:
        raise SimulationError(
            "could not place the destination in the last stage "
            f"(path_length={path_length}, d={d}, d_prime={d_prime}, seed={seed})"
        )
    network = uniform_network([*source_stage, *relays, destination], 0.001, NodeResources())
    substrate = SimulatedOverlayNetwork(network, connection_bps=1e9)
    runtime = SlicingRuntime(substrate)
    runtime.start_flow(source, flow)
    substrate.sim.run()
    for stage, position in failed_stage_positions:
        victim = flow.graph.stages[stage][position]
        if victim != destination:
            substrate.fail_node(victim)
    runtime.send_messages(source, flow, [message])
    substrate.sim.run()
    delivered = runtime.relays[destination].delivered_messages(
        flow.plan.flow_ids[destination]
    )
    return any(value == message for value in delivered.values())
