"""Data-plane microbenchmark: batched overlay plane vs. per-packet reference.

One fig11-style workload (a LAN flow shipping a burst of fixed-size messages
end to end through real relay engines) is driven twice over identical
substrates and seeds: once on the per-packet ``"scalar"`` data plane and once
on the ``"batched"`` plane.  The comparison asserts the batched plane's
contract — *bit-identical* delivered plaintexts and relay counters — and
measures both sides' wall-clock milliseconds for the ``dataplane-bench``
experiment (gate target: :data:`repro.experiments.bench_history.GATES`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ..core.source import Source
from ..overlay.node import SimulatedOverlayNetwork, SlicingRuntime
from ..overlay.profiles import LAN_PROFILE
from .throughput import connection_bps_for
from .timing import compare_paths

#: Message count of the acceptance workload.
DATAPLANE_MESSAGES = 64

#: Workload shape (chosen so coding work is non-trivial per message while
#: the burst still runs in well under a second on the batched plane).
DATAPLANE_D = 4
DATAPLANE_PATH_LENGTH = 5
DATAPLANE_MESSAGE_BYTES = 256

#: Pipelining quantum used by the benchmark's batched plane: the whole burst
#: per connection is one transmit batch (wall-clock is what is measured here,
#: not simulated pipelining behaviour).
DATAPLANE_BATCH_CHUNK = 64


def prepare_dataplane_burst(
    data_plane: str,
    num_messages: int = DATAPLANE_MESSAGES,
    message_bytes: int = DATAPLANE_MESSAGE_BYTES,
    seed: int = 42,
) -> Callable[[], tuple[dict[int, bytes], dict[str, tuple], int]]:
    """Establish the fig11-style flow on ``data_plane``; return its burst.

    Set-up (substrate, flow establishment) is identical on both planes and
    happens here, off the clock; calling the returned function codes, ships
    and decodes the ``num_messages`` burst until the simulator drains
    (including flush timers) — the part :func:`compare_data_planes` times —
    and returns ``(delivered plaintexts, per-relay counters, events processed)``.
    """
    d = DATAPLANE_D
    rng = np.random.default_rng(seed)
    source_stage = [f"src-{i}" for i in range(d)]
    relays = [f"relay-{i}" for i in range(DATAPLANE_PATH_LENGTH * d * 2)]
    destination = "destination"
    network = LAN_PROFILE.build_network(source_stage + relays + [destination], rng)
    substrate = SimulatedOverlayNetwork(
        network, connection_bps=connection_bps_for(LAN_PROFILE)
    )
    runtime = SlicingRuntime(
        substrate,
        rng=np.random.default_rng(seed + 1),
        data_plane=data_plane,
        batch_chunk=DATAPLANE_BATCH_CHUNK,
    )
    source = Source(
        source_stage[0],
        source_stage[1:],
        d=d,
        d_prime=d,
        path_length=DATAPLANE_PATH_LENGTH,
        rng=rng,
    )
    flow = source.establish_flow(relays, destination)
    progress = runtime.start_flow(source, flow)
    substrate.sim.run()
    payload = bytes(message_bytes)

    def burst():
        runtime.send_messages(source, flow, [payload] * num_messages)
        substrate.sim.run()
        destination_relay = runtime.relays[destination]
        delivered = destination_relay.delivered_messages(
            flow.plan.flow_ids[destination]
        )
        stats = {
            address: (
                relay.stats.packets_received,
                relay.stats.packets_sent,
                relay.stats.bytes_received,
                relay.stats.bytes_sent,
                relay.stats.flows_decoded,
                relay.stats.messages_delivered,
                relay.stats.regenerated_slices,
            )
            for address, relay in runtime.relays.items()
        }
        assert len(progress.delivered_messages) == len(delivered)
        return delivered, stats, substrate.sim.events_processed

    return burst


def compare_data_planes(
    reps: int = 3,
    seed: int = 42,
    num_messages: int = DATAPLANE_MESSAGES,
    message_bytes: int = DATAPLANE_MESSAGE_BYTES,
) -> dict:
    """Run both planes ``reps`` times; returns the benchmark row.

    Each plane is handed to :func:`~repro.experiments.timing.compare_paths`
    as a factory — a fresh substrate and established flow per repetition,
    off the clock — and what must be identical is the delivered plaintexts
    (all ``num_messages`` of them) and the per-relay counters.
    """
    seen: dict[str, tuple[int, int]] = {}  # plane -> (messages delivered, events)

    def prepare(data_plane: str):
        burst = prepare_dataplane_burst(data_plane, num_messages, message_bytes, seed)

        def run():
            delivered, stats, events = burst()
            seen[data_plane] = (len(delivered), events)
            return delivered, stats

        return run

    row = compare_paths(partial(prepare, "scalar"), partial(prepare, "batched"), reps)
    row["identical"] = row["identical"] and seen["batched"][0] == num_messages
    return {
        "seed": seed,
        "num_messages": num_messages,
        **row,
        "scalar_events": seen["scalar"][1],
        "batched_events": seen["batched"][1],
    }
