"""The unified ProtocolRuntime interface: slicing and the onion baselines
drive Figs. 11-15 through one establish/send driver over one substrate."""

import numpy as np
import pytest

from repro.core.errors import SimulationError
from repro.core.source import Source
from repro.experiments.registry import get_experiment
from repro.experiments.runner import run_experiment
from repro.experiments.setup_latency import measure_setup
from repro.experiments.throughput import (
    SCHEMES,
    connection_bps_for,
    measure_throughput,
    prepare_scheme_transfer,
    transfer_throughput,
)
from repro.overlay.node import SimulatedOverlayNetwork, SlicingRuntime
from repro.overlay.profiles import LAN_PROFILE
from repro.overlay.runtime import SUBSTRATE_BACKENDS, ProtocolRuntime

from oracles.dataplane import ScalarSlicingRuntime


def build_substrate(addresses, seed=0):
    network = LAN_PROFILE.build_network(addresses, np.random.default_rng(seed))
    return SimulatedOverlayNetwork(network, connection_bps=30e6)


def test_registry_lists_all_schemes():
    # The SCHEMES table is the one scheme list every consumer reads.
    assert tuple(SCHEMES) == ("slicing", "onion", "sphinx")
    # Every entry's runtime builds from the one constructor its plan feeds.
    for name, entry in SCHEMES.items():
        source_stage, relays, destination = entry.address_plan(2, 3)
        substrate = build_substrate([*source_stage, *relays, destination])
        runtime = entry.runtime(substrate, source_stage, 2, d=2, d_prime=3, rng=None)
        assert isinstance(runtime, ProtocolRuntime)
        assert runtime.scheme == name
        assert (runtime.path_length, runtime.d, runtime.d_prime) == (2, 2, 3)
    with pytest.raises(KeyError):
        prepare_scheme_transfer("carrier-pigeon", LAN_PROFILE, 2, 2, 3, 0, "batched")


def test_runtime_backends_reports_supported_substrates():
    # Every scheme runs on every substrate backend, so the backends are one
    # list, not a per-scheme property.
    assert SUBSTRATE_BACKENDS == ("sim", "aio")
    for name in ("fig11", "fig12", "fig13", "fig14", "fig15"):
        assert get_experiment(name).backends == SUBSTRATE_BACKENDS
    for scheme in SCHEMES:
        for backend in SUBSTRATE_BACKENDS:
            substrate, runtime, _relays, _destination = prepare_scheme_transfer(
                scheme, LAN_PROFILE, 2, 2, 3, 0, "batched", backend=backend
            )
            try:
                assert runtime.scheme == scheme
                assert runtime.sim is substrate.sim
            finally:
                if backend == "aio":
                    substrate.close()
    with pytest.raises(KeyError):
        prepare_scheme_transfer(
            "slicing", LAN_PROFILE, 2, 2, 3, 0, "batched", backend="carrier-pigeon"
        )


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_send_before_establish_is_a_simulation_error(scheme):
    # A real exception, not an assert: ``python -O`` must not strip the check.
    _substrate, runtime, _relays, _destination = prepare_scheme_transfer(
        scheme, LAN_PROFILE, 2, 2, 3, 0, "batched"
    )
    with pytest.raises(SimulationError, match=f"{scheme}: establish"):
        runtime.send_messages([b"too early"])


def test_slicing_runtime_source_is_a_bare_source_on_the_same_rng():
    # The wrapper hands ``rng`` to its Source untouched, so a caller that
    # switches from Source + SlicingRuntime to it keeps the same graph.
    relays = [f"r{i}" for i in range(20)]
    substrate = build_substrate(["s0", "s1", *relays, "dst"])
    transfer = SCHEMES["slicing"].runtime(
        substrate, ["s0", "s1"], path_length=3, d=2, rng=np.random.default_rng(4)
    )
    transfer.establish(relays, "dst")
    bare = Source("s0", ["s1"], d=2, path_length=3, rng=np.random.default_rng(4))
    assert transfer.flow.graph.stages == bare.establish_flow(relays, "dst").graph.stages


def test_onion_runtime_delivers_plaintexts_end_to_end():
    relays = [f"onion-{i}" for i in range(4)]
    substrate = build_substrate(["src", *relays, "dst"])
    runtime = SCHEMES["onion"].runtime(
        substrate, ["src"], path_length=4, rng=np.random.default_rng(1)
    )
    progress = runtime.establish(relays, "dst")
    substrate.sim.run()
    assert runtime.setup_seconds() > 0
    # Every circuit relay peeled a layer during setup.
    driver = runtime._driver
    assert set(driver.handles) == set(driver.circuit.hops)
    messages = [b"cell-%d" % i for i in range(5)]
    runtime.send_messages(messages)
    substrate.sim.run()
    assert len(progress.delivered_messages) == 5
    # The delivered cells are the original plaintexts: every layer stripped.
    assert [runtime.delivered[i] for i in range(5)] == messages


@pytest.mark.parametrize("lengths", [1, 3])
def test_circuit_cell_costs_equal_the_per_cell_prices(monkeypatch, lengths):
    """A chunk prices each distinct cell length once: the CPU costs it charges
    are, bit for bit, one ``symmetric_time`` per cell (times the layer count
    at the source, hop 0), whether its cells have one length or several."""
    relays = [f"onion-{i}" for i in range(4)]
    substrate = build_substrate(["src", *relays, "dst"], seed=3)
    runtime = SCHEMES["onion"].runtime(
        substrate, ["src"], path_length=4, rng=np.random.default_rng(2)
    )
    runtime.establish(relays, "dst")
    substrate.sim.run()
    sent = []
    transmit_blobs = substrate.transmit_blobs

    def recording(sender, receiver, cells, deliver, sender_cpu_seconds=None):
        sent.append((sender, list(cells), list(sender_cpu_seconds)))
        transmit_blobs(sender, receiver, cells, deliver, sender_cpu_seconds)

    monkeypatch.setattr(substrate, "transmit_blobs", recording)
    # ``lengths`` cell lengths in every chunk of 16 cells.
    messages = [bytes([seq]) * (700 + 300 * (seq % lengths)) for seq in range(40)]
    runtime.send_messages(messages)
    substrate.sim.run()
    assert [runtime.delivered[seq] for seq in range(40)] == messages
    hops = {sender for sender, _cells, _cpus in sent}
    assert "src" in hops and len(hops) == 5  # hop 0 and every later hop
    for sender, cells, cpus in sent:
        assert len({len(cell) for cell in cells}) == lengths
        resources = substrate.network.resources(sender)
        if sender == "src":
            per_cell = [resources.symmetric_time(len(cell)) * 4 for cell in cells]
        else:
            per_cell = [resources.symmetric_time(len(cell)) for cell in cells]
        assert cpus == per_cell, sender


def test_sphinx_runtime_delivers_plaintexts_end_to_end():
    relays = [f"sphinx-{i}" for i in range(4)]
    substrate = build_substrate(["src", *relays, "dst"], seed=6)
    runtime = SCHEMES["sphinx"].runtime(
        substrate, ["src"], path_length=4, rng=np.random.default_rng(7)
    )
    progress = runtime.establish(relays, "dst")
    substrate.sim.run()
    assert runtime.setup_seconds() > 0
    driver = runtime._driver
    assert set(driver.handles) == set(driver.circuit.hops)
    messages = [b"cell-%d" % i for i in range(5)]
    runtime.send_messages(messages)
    substrate.sim.run()
    assert len(progress.delivered_messages) == 5
    # Cells are padded on the wire but delivered unpadded: exact plaintexts.
    assert [runtime.delivered[i] for i in range(5)] == messages


def _throughput_with_redundancy(scheme, num_messages=20, message_bytes=600, seed=31,
                                backend="sim"):
    """One transfer at d = 2, d' = 3: ``prepare_scheme_transfer`` takes d'."""
    substrate, runtime, relays, destination = prepare_scheme_transfer(
        scheme, LAN_PROFILE, 3, 2, 3, seed, "batched", backend
    )
    try:
        return transfer_throughput(runtime, relays, destination, num_messages, message_bytes)
    finally:
        substrate.close()


def test_sphinx_sim_vs_aio_delivered_digest_parity():
    kwargs = dict(num_messages=12, message_bytes=700, seed=33)
    sim = _throughput_with_redundancy("sphinx", backend="sim", **kwargs)
    aio = _throughput_with_redundancy("sphinx", backend="aio", **kwargs)
    assert sim.messages_delivered == 12
    assert sim == aio  # the digest and the virtual-time fields


def test_unified_throughput_driver_covers_all_schemes():
    results = {scheme: _throughput_with_redundancy(scheme) for scheme in SCHEMES}
    assert results["slicing"].protocol == "information-slicing"
    assert results["onion"].protocol == "onion-routing"
    assert results["sphinx"].protocol == "sphinx-onion"
    for result in results.values():
        assert result.messages_delivered == 20
    # The paper's headline: parallel slicing paths beat the single chain.
    assert results["slicing"].throughput_bps > results["onion"].throughput_bps
    with pytest.raises(KeyError):
        measure_throughput("smoke-signals", LAN_PROFILE, path_length=2)


def test_unified_setup_driver_covers_all_schemes():
    onion = measure_setup("onion", LAN_PROFILE, path_length=3, seed=7)
    slicing = measure_setup("slicing", LAN_PROFILE, path_length=3, d=2, seed=7)
    sphinx = measure_setup("sphinx", LAN_PROFILE, path_length=3, seed=7)
    assert 0 < onion.setup_seconds < slicing.setup_seconds
    assert sphinx.setup_seconds > 0
    with pytest.raises(KeyError):
        measure_setup("smoke-signals", LAN_PROFILE, path_length=2)


def test_prepare_scheme_transfer_accepts_only_the_batched_plane():
    # The positional data-plane slot survives for its callers; "batched" is
    # the only value it takes.
    with pytest.raises(ValueError, match="unknown data plane 'scalar'"):
        prepare_scheme_transfer("slicing", LAN_PROFILE, 2, 2, 2, 1, "scalar")


def dataplane_burst(runtime_cls, seed, num_messages, message_bytes):
    """A fig11-style LAN flow (d = d' = 4, L = 5) shipping a burst of
    zero-filled messages; returns delivered plaintexts, per-relay counters
    and the simulator events the burst took."""
    d, path_length = 4, 5
    rng = np.random.default_rng(seed)
    source_stage = [f"src-{i}" for i in range(d)]
    relays = [f"relay-{i}" for i in range(path_length * d * 2)]
    network = LAN_PROFILE.build_network(source_stage + relays + ["destination"], rng)
    substrate = SimulatedOverlayNetwork(network, connection_bps=connection_bps_for(LAN_PROFILE))
    runtime = runtime_cls(substrate, rng=np.random.default_rng(seed + 1))
    source = Source(
        source_stage[0], source_stage[1:], d=d, d_prime=d, path_length=path_length, rng=rng
    )
    flow = source.establish_flow(relays, "destination")
    runtime.start_flow(source, flow)
    substrate.sim.run()
    events_before = substrate.sim.events_processed
    runtime.send_messages(source, flow, [bytes(message_bytes)] * num_messages)
    substrate.sim.run()
    delivered = runtime.relays["destination"].delivered_messages(
        flow.plan.flow_ids["destination"]
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
    return delivered, stats, substrate.sim.events_processed - events_before


def test_dataplane_comparison_is_bit_identical_at_small_scale():
    kwargs = dict(seed=3, num_messages=8, message_bytes=256)
    batched_delivered, batched_stats, batched_events = dataplane_burst(SlicingRuntime, **kwargs)
    scalar_delivered, scalar_stats, scalar_events = dataplane_burst(
        ScalarSlicingRuntime, **kwargs
    )
    assert len(batched_delivered) == 8
    assert batched_delivered == scalar_delivered
    assert batched_stats == scalar_stats
    assert batched_events < scalar_events


def test_fig13_rows_identical_across_worker_counts(tmp_path):
    serial = run_experiment("fig13", scale=0.05, workers=1, out_dir=tmp_path / "serial")
    parallel = run_experiment(
        "fig13", scale=0.05, workers=2, out_dir=tmp_path / "parallel", force=True
    )
    assert serial.rows == parallel.rows
    assert (tmp_path / "serial" / "fig13.json").read_bytes() == (
        tmp_path / "parallel" / "fig13.json"
    ).read_bytes()
