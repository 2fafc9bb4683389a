"""Coverage for bookkeeping surfaces: relay stats, substrate stats, progress."""

import numpy as np

from repro.core.source import Source
from repro.overlay.network import NodeResources, uniform_network
from repro.overlay.node import FlowProgress, SimulatedOverlayNetwork, SlicingRuntime
from repro.overlay.profiles import LAN_PROFILE
from repro.overlay.runtime import SlicingProtocolRuntime


def test_relay_stats_track_traffic():
    relays = [f"n{i}" for i in range(30)]
    network = uniform_network(["s0", "s1", *relays, "dst"], 0.001, NodeResources())
    transfer = SlicingProtocolRuntime(
        SimulatedOverlayNetwork(network, connection_bps=1e9),
        ["s0", "s1"],
        d=2,
        path_length=3,
        rng=np.random.default_rng(0),
    )
    transfer.establish(relays, "dst")
    transfer.sim.run()
    transfer.send_messages([b"x" * 600])
    transfer.sim.run()
    assert transfer.delivered_plaintexts()[0] == b"x" * 600
    engines = transfer.runtime.relays.values()
    total_received = sum(r.stats.packets_received for r in engines)
    total_sent = sum(r.stats.packets_sent for r in engines)
    assert total_received > 0 and total_sent > 0
    decoded = sum(r.stats.flows_decoded for r in engines)
    assert decoded == len(transfer.flow.graph.relays)
    destination = transfer.runtime.relays["dst"]
    assert destination.stats.messages_delivered == 1
    assert destination.stats.bytes_received > 600


def test_substrate_stats_and_progress_counters():
    network = uniform_network(["a", "b", "c"], 0.001, NodeResources())
    substrate = SimulatedOverlayNetwork(network, connection_bps=1e7)
    substrate.transmit_blob("a", "b", bytes(100), lambda _blob: None)
    substrate.transmit_batch("b", "c", [120, 80], lambda _arrivals: None)
    substrate.sim.run()
    assert substrate.stats.packets_sent == 3
    assert substrate.stats.bytes_sent == 300
    assert substrate.stats.packets_dropped == 0

    progress = FlowProgress()
    assert progress.setup_complete_time(["x"]) is None
    progress.relay_decode_times["x"] = 1.5
    progress.relay_decode_times["y"] = 2.5
    assert progress.setup_complete_time(["x", "y"]) == 2.5


def test_slicing_runtime_records_decode_times_in_stage_order():
    rng = np.random.default_rng(4)
    sources = ["s0", "s1"]
    relays = [f"r{i}" for i in range(20)]
    addresses = sources + relays + ["dst"]
    network = LAN_PROFILE.build_network(addresses, rng)
    substrate = SimulatedOverlayNetwork(network, connection_bps=30e6)
    runtime = SlicingRuntime(substrate, rng=np.random.default_rng(5))
    source = Source("s0", ["s1"], d=2, path_length=3, rng=rng)
    flow = source.establish_flow(relays, "dst")
    progress = runtime.start_flow(source, flow)
    substrate.sim.run()
    stage1 = max(progress.relay_decode_times[n] for n in flow.graph.stages[1])
    stage3 = max(progress.relay_decode_times[n] for n in flow.graph.stages[3])
    # Later stages cannot finish their setup before earlier ones.
    assert stage3 >= stage1
    assert substrate.stats.packets_sent >= len(flow.setup_packets)
