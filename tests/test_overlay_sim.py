"""Tests for the discrete-event simulator, network models and node runtime."""

import re

import numpy as np
import pytest

from repro.core.errors import SimulationError
from repro.core.source import Source
from repro.overlay.network import NodeResources, heterogeneous_network, uniform_network
from repro.overlay.node import SimulatedOverlayNetwork, SlicingRuntime
from repro.overlay.profiles import LAN_PROFILE, PLANETLAB_PROFILE, get_profile
from repro.overlay.runtime import build_substrate
from repro.overlay.simulator import EventSimulator


# -- event simulator ------------------------------------------------------------------


def test_events_run_in_time_order():
    sim = EventSimulator()
    order = []
    sim.schedule(2.0, lambda: order.append("late"))
    sim.schedule(1.0, lambda: order.append("early"))
    sim.schedule(1.0, lambda: order.append("tie-second"))
    end = sim.run()
    assert order == ["early", "tie-second", "late"]
    assert end == pytest.approx(2.0)


def test_schedule_in_past_rejected():
    sim = EventSimulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    # NaN compares false with everything, so `delay < 0` alone let it in.
    for bad in (float("nan"), float("inf"), -float("inf"), -1.0):
        with pytest.raises(SimulationError, match=re.escape(repr(bad))):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError, match=re.escape(repr(bad))):
            sim.schedule_at(bad, lambda: None)
    assert sim.pending == 0
    assert sim.run() == 0.0


@pytest.mark.parametrize("backend", ["sim", "aio"])
def test_event_that_trips_the_budget_stays_queued(backend):
    substrate = build_substrate(
        backend, uniform_network(["a"], 0.0, NodeResources()), connection_bps=1e6
    )
    sim = substrate.sim
    try:
        ran = []
        for index in range(3):
            sim.schedule(float(index), lambda index=index: ran.append(index))
        with pytest.raises(SimulationError, match="event budget"):
            sim.run(max_events=1)
        assert ran == [0]
        sim.run()
        assert ran == [0, 1, 2]
        assert sim.events_processed == 3
        assert sim.now == 2.0
    finally:
        substrate.close()


def test_run_until_stops_early():
    sim = EventSimulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(1))
    sim.run(until=1.0)
    assert fired == [] and sim.now == pytest.approx(1.0)
    sim.run()
    assert fired == [1]


def test_cancelled_events_do_not_fire():
    sim = EventSimulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []
    assert sim.pending == 0


def test_nested_scheduling():
    sim = EventSimulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.schedule(0.5, lambda: times.append(sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert times == [pytest.approx(1.0), pytest.approx(1.5)]


# -- network models --------------------------------------------------------------------


def test_uniform_network_latency_and_resources():
    resources = NodeResources(load_factor=3.0)
    network = uniform_network(["a", "b"], 0.01, resources)
    assert network.latency("a", "b") == pytest.approx(0.01)
    assert network.latency("a", "a") == 0.0
    assert network.resources("a") is resources
    with pytest.raises(SimulationError):
        network.resources("missing")


def test_heterogeneous_network_is_symmetric_and_loaded():
    rng = np.random.default_rng(0)
    addresses = [f"n{i}" for i in range(6)]
    network = heterogeneous_network(
        addresses, rng, latency_mean=0.04, latency_sigma=0.5, base_resources=NodeResources()
    )
    assert network.latency("n0", "n3") == network.latency("n3", "n0")
    assert all(network.resources(a).load_factor >= 1.0 for a in addresses)


def test_node_resources_cost_helpers():
    resources = NodeResources(load_factor=2.0)
    assert resources.coding_time(1500, 5) == pytest.approx(8e-9 * 5 * 1500 * 2)
    assert resources.symmetric_time(1000) == pytest.approx(4e-9 * 1000 * 2)
    assert resources.pk_decrypt_time() > resources.pk_encrypt_time()


def test_profiles_registry():
    assert get_profile("lan") is LAN_PROFILE
    assert get_profile("planetlab") is PLANETLAB_PROFILE
    with pytest.raises(KeyError):
        get_profile("does-not-exist")
    lan_network = LAN_PROFILE.build_network(["x", "y"])
    assert lan_network.latency("x", "y") == pytest.approx(0.0002)


# -- substrate ---------------------------------------------------------------------------


def test_transmit_delivers_and_respects_failures():
    network = uniform_network(["a", "b"], 0.01, NodeResources())
    substrate = SimulatedOverlayNetwork(network, connection_bps=1e6)
    delivered = []

    def record(_blob):
        delivered.append(substrate.sim.now)

    substrate.transmit_blob("a", "b", bytes(1250), record)
    substrate.sim.run()
    assert len(delivered) == 1
    # transmission (0.01s at 1 Mbps for 1250 B) + latency 0.01 + overhead.
    assert delivered[0] == pytest.approx(0.02, abs=2e-3)

    substrate.fail_node("b")
    substrate.transmit_blob("a", "b", bytes(1250), record)
    substrate.sim.run()
    assert len(delivered) == 1
    assert substrate.stats.packets_dropped == 1


def test_connection_serialisation_queues_packets():
    network = uniform_network(["a", "b"], 0.0, NodeResources())
    substrate = SimulatedOverlayNetwork(network, connection_bps=8000.0)
    substrate.per_packet_overhead = 0.0
    times = []
    for _ in range(3):
        substrate.transmit_blob(
            "a", "b", bytes(1000), lambda _blob: times.append(substrate.sim.now)
        )
    substrate.sim.run()
    # Each 1000-byte packet takes 1 s on an 8 kbit/s connection; they queue.
    assert times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


# -- slicing runtime over the simulator -------------------------------------------------------


def run_simulated_flow(
    profile,
    d=2,
    d_prime=None,
    path_length=3,
    messages=3,
    fail_stage=None,
    min_destination_stage=1,
):
    d_prime = d if d_prime is None else d_prime
    rng = np.random.default_rng(1)
    sources = [f"s{i}" for i in range(d_prime)]
    relays = [f"r{i}" for i in range(path_length * d_prime * 2 + 10)]
    addresses = sources + relays + ["dest"]
    network = profile.build_network(addresses, rng)
    substrate = SimulatedOverlayNetwork(network, connection_bps=30e6)
    runtime = SlicingRuntime(substrate, rng=np.random.default_rng(2))
    for seed in range(1, 100):
        source = Source(
            sources[0],
            sources[1:],
            d=d,
            d_prime=d_prime,
            path_length=path_length,
            rng=np.random.default_rng(seed),
        )
        flow = source.establish_flow(relays, "dest")
        if flow.graph.destination_stage >= min_destination_stage:
            break
    progress = runtime.start_flow(source, flow)
    substrate.sim.run()
    if fail_stage is not None:
        victim = [n for n in flow.graph.stages[fail_stage] if n != "dest"][0]
        substrate.fail_node(victim)
    for index in range(messages):
        runtime.send_messages(source, flow, [f"message-{index}".encode()])
    substrate.sim.run()
    return flow, progress


def test_simulated_flow_setup_completes_and_delivers():
    flow, progress = run_simulated_flow(LAN_PROFILE, messages=4)
    setup_time = progress.setup_complete_time(flow.graph.stages[-1])
    assert setup_time is not None and setup_time > 0
    assert len(progress.delivered_messages) == 4
    assert progress.delivered_bytes > 0


def test_simulated_flow_survives_failure_with_redundancy():
    flow, progress = run_simulated_flow(
        LAN_PROFILE, d=2, d_prime=3, path_length=3, messages=3, fail_stage=2
    )
    assert len(progress.delivered_messages) == 3


def test_simulated_flow_loses_messages_without_redundancy():
    # The failed stage-1 relay sits upstream of the destination (which we
    # force beyond stage 1), so with d' = d nothing can be recovered.
    flow, progress = run_simulated_flow(
        LAN_PROFILE,
        d=2,
        d_prime=2,
        path_length=3,
        messages=3,
        fail_stage=1,
        min_destination_stage=2,
    )
    assert len(progress.delivered_messages) == 0


def test_wide_area_flow_is_slower_but_works():
    lan_flow, lan_progress = run_simulated_flow(LAN_PROFILE, messages=2)
    wan_flow, wan_progress = run_simulated_flow(PLANETLAB_PROFILE, messages=2)
    lan_setup = lan_progress.setup_complete_time(lan_flow.graph.stages[-1])
    wan_setup = wan_progress.setup_complete_time(wan_flow.graph.stages[-1])
    assert wan_setup > lan_setup
    assert len(wan_progress.delivered_messages) == 2
