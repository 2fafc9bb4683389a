"""The asyncio socket backend: backend parity and lifecycle.

The ``aio`` backend runs the simulator's event order, so every protocol
runtime (slicing, onion, Sphinx) must produce the same whole result on it
as on the discrete-event simulator under a shared seed: delivered
plaintexts, relay and network counters, and every virtual-time field
(throughput, setup latency, events processed), on the LAN and the
PlanetLab profile.  These are the in-process versions of what the CI
``aio-parity`` job asserts across whole figure artifacts.
"""

import asyncio
import gc
import json
import os
import time
import warnings

import numpy as np
import pytest

from repro.core.errors import PacketFormatError, SimulationError
from repro.experiments.runner import run_experiment
from repro.experiments import throughput
from repro.experiments.setup_latency import measure_setup
from repro.experiments.throughput import (
    aggregate_throughput_vs_flows,
    prepare_scheme_transfer,
    transfer_throughput,
)
from repro.core.coder import CodedBlock
from repro.core.packet import Packet, PacketBatch, PacketKind
from repro.core.relay import Relay
from repro.overlay.aio import (
    BATCH_HEADER,
    MAX_FRAME_BYTES,
    AioOverlayNetwork,
    _Inbound,
    _Outbound,
    encode_frame,
)
from repro.overlay.network import NodeResources, uniform_network
from repro.overlay.profiles import LAN_PROFILE, PLANETLAB_PROFILE
from repro.overlay.runtime import build_substrate


def _lan_network(addresses, seed=0):
    return LAN_PROFILE.build_network(addresses, np.random.default_rng(seed))


# -- parity -------------------------------------------------------------------------


_PROFILES = (LAN_PROFILE, PLANETLAB_PROFILE)


@pytest.mark.parametrize(
    ("scheme", "kwargs"),
    [
        ("slicing", {"d": 2}),
        ("onion", {}),
        ("sphinx", {}),
    ],
)
def test_throughput_parity_with_simulator(scheme, kwargs):
    """Whole results and event counts are equal on LAN and PlanetLab.

    Sphinx with d' > d on a longer path is
    ``tests/test_protocol_runtimes.py::test_sphinx_sim_vs_aio_delivered_digest_parity``.
    """
    d = kwargs.get("d", 1)
    for profile in _PROFILES:
        results, events = {}, {}
        for backend in ("sim", "aio"):
            substrate, runtime, relays, destination = prepare_scheme_transfer(
                scheme, profile, 2, d, d, 42, "batched", backend
            )
            try:
                results[backend] = transfer_throughput(runtime, relays, destination, 15, 1500)
            finally:
                substrate.close()
            events[backend] = substrate.sim.events_processed
        assert results["sim"].messages_delivered == 15
        assert results["sim"].delivered_digest != ""
        # The whole result: the digest covers the plaintexts' content, and
        # the virtual-time fields follow from the shared event order.
        assert results["sim"] == results["aio"], profile.name
        assert events["sim"] == events["aio"], profile.name


def _transfer(scheme, backend="sim"):
    """One small transfer; returns the aio bind host (None on the sim) and the parity surface."""
    substrate, runtime, relays, destination = prepare_scheme_transfer(
        scheme, LAN_PROFILE, 2, 2, 2, 42, "batched", backend
    )
    try:
        runtime.establish(relays, destination)
        substrate.sim.run()
        runtime.send_messages([bytes([seq]) * 1500 for seq in range(15)])
        substrate.sim.run()
        assert len(runtime.delivered_plaintexts()) == 15
        return getattr(substrate, "bind_host", None), (
            runtime.delivered_digest(),
            runtime.relay_counters(),
            runtime.network_counters(),
        )
    finally:
        substrate.close()


@pytest.mark.parametrize("scheme", ["slicing", "onion"])
def test_aio_host_from_the_environment_reaches_the_substrate_with_parity(scheme, monkeypatch):
    # prepare_scheme_transfer builds the aio substrate through
    # build_substrate("aio", ...), which reads REPRO_AIO_HOST into bind_host;
    # a named host delivers what the simulator delivers.
    _, sim = _transfer(scheme)
    monkeypatch.setenv("REPRO_AIO_HOST", "localhost")
    host, aio = _transfer(scheme, "aio")
    assert host == "localhost"
    assert aio == sim


@pytest.fixture
def built_substrates(monkeypatch):
    """Every substrate ``prepare_scheme_transfer`` builds, in order."""
    built = []
    build = throughput.build_substrate

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(throughput, "build_substrate", recording)
    return built


@pytest.mark.parametrize(
    ("scheme", "d"),
    [("slicing", 2), ("slicing", 3), ("onion", 1), ("sphinx", 1)],
)
def test_setup_parity_with_simulator(scheme, d, built_substrates):
    for profile in _PROFILES:
        for path_length in (1, 3, 5):
            sim = measure_setup(scheme, profile, path_length, d=d, seed=17)
            aio = measure_setup(scheme, profile, path_length, d=d, seed=17, backend="aio")
            assert sim.setup_complete and sim.setup_seconds > 0
            assert sim == aio, (profile.name, path_length)
            sim_events, aio_events = (s.sim.events_processed for s in built_substrates)
            assert sim_events == aio_events, (profile.name, path_length)
            built_substrates.clear()


def test_aggregate_flows_parity_with_simulator():
    rows = {
        backend: aggregate_throughput_vs_flows(
            LAN_PROFILE,
            flow_counts=[2],
            overlay_size=24,
            path_length=3,
            d=2,
            num_messages=8,
            seed=9,
            backend=backend,
        )
        for backend in ("sim", "aio")
    }
    assert rows["sim"][0]["messages_delivered"] == 16
    assert rows["sim"][0]["parity"] == rows["aio"][0]["parity"]


def _without_backend(value):
    if isinstance(value, dict):
        return {key: _without_backend(item) for key, item in value.items() if key != "backend"}
    return [_without_backend(item) for item in value] if isinstance(value, list) else value


def test_runner_parity_artifacts_are_byte_identical(tmp_path):
    """fig14 through the registry on both backends: same parity artifact."""
    paths = {}
    for backend in ("sim", "aio"):
        out = tmp_path / backend
        run_experiment("fig14", scale=0.02, out_dir=out, backend=backend)
        paths[backend] = out / "fig14.parity.json"
        assert paths[backend].exists()
    assert paths["sim"].read_bytes() == paths["aio"].read_bytes()
    # The main artifacts differ only in the backend each trial records: the
    # setup latencies are the simulator's.
    sim, aio = (
        json.loads((tmp_path / backend / "fig14.json").read_text()) for backend in ("sim", "aio")
    )
    assert sim != aio
    assert _without_backend(sim) == _without_backend(aio)


def test_runner_rejects_backend_for_sim_only_experiments(tmp_path):
    with pytest.raises(ValueError, match="does not support backend"):
        run_experiment("fig16", out_dir=tmp_path, backend="aio")


# -- lifecycle ----------------------------------------------------------------------


def test_build_substrate_selects_backends():
    network = _lan_network(["a", "b"])
    sim = build_substrate("sim", network, connection_bps=30e6)
    aio = build_substrate("aio", network, connection_bps=30e6)
    try:
        assert type(sim).__name__ == "SimulatedOverlayNetwork"
        assert isinstance(aio, AioOverlayNetwork)
        with pytest.raises(KeyError, match="unknown overlay backend"):
            build_substrate("carrier-pigeon", network, connection_bps=30e6)
    finally:
        aio.close()
        sim.close()  # no-op on the simulator backend


def test_aio_blob_round_trip_and_teardown():
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    delivered = []
    substrate.transmit_blob("a", "b", b"setup-onion", delivered.append)
    substrate.sim.run()
    assert delivered == [b"setup-onion"]
    assert substrate.stats.packets_sent == 1
    substrate.close()
    substrate.close()  # idempotent
    with pytest.raises(SimulationError, match="closed"):
        substrate.transmit_blob("a", "b", b"late", delivered.append)


def test_aio_drops_to_failed_receiver():
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    try:
        delivered = []
        substrate.fail_node("b")
        substrate.transmit_blobs(
            "a", "b", [b"one", b"two"], lambda blobs, arrivals: delivered.append(blobs)
        )
        substrate.sim.run()
        assert delivered == []
        assert substrate.stats.packets_dropped == 2
    finally:
        substrate.close()


@pytest.mark.parametrize("backend", ["sim", "aio"])
@pytest.mark.parametrize("dead", ["sender", "receiver"])
def test_a_dropped_data_batch_counts_one_drop_per_packet(backend, dead):
    substrate = build_substrate(backend, _lan_network(["a", "b"]), connection_bps=30e6)
    batch = PacketBatch(
        flow_id=1, d=2, lane=0, seqs=[0, 1, 2, 3, 4],
        coefficients=np.zeros((5, 2), np.uint8), payloads=np.zeros((5, 8), np.uint8),
    )
    try:
        delivered = []
        substrate.fail_node("a" if dead == "sender" else "b")
        substrate.transmit_packets(
            "a", "b", [batch], lambda items, arrivals: delivered.append(items)
        )
        substrate.sim.run()
        assert delivered == []
        assert substrate.stats.packets_dropped == 5
    finally:
        substrate.close()


def test_a_data_burst_on_an_established_flow_creates_no_task():
    """Batches go straight to their connections: no task per batch or per send."""
    substrate, runtime, relays, destination = prepare_scheme_transfer(
        "slicing", LAN_PROFILE, 4, 2, 3, 42, "batched", "aio"
    )
    created = []

    def recording_factory(loop, coro, **kwargs):
        created.append(coro.__qualname__)
        return asyncio.Task(coro, loop=loop, **kwargs)

    try:
        runtime.establish(relays, destination)
        substrate.sim.run()
        substrate._loop.set_task_factory(recording_factory)
        runtime.send_messages([bytes([seq]) * 1500 for seq in range(32)])
        substrate.sim.run()
        assert len(runtime.delivered_plaintexts()) == 32
        # The one task is drive()'s own drain.
        assert created == ["AioOverlayNetwork._drain"]
    finally:
        substrate.close()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts fds through /proc")
@pytest.mark.parametrize("scheme", ["slicing", "onion"])
def test_close_returns_every_socket_after_a_transfer(scheme):
    _transfer(scheme, "aio")  # the first run imports and caches what it needs
    gc.collect()
    before = _open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for _ in range(3):
            _transfer(scheme, "aio")
        gc.collect()
    assert _open_fds() == before
    assert [str(warning.message) for warning in caught] == []


# -- receive-side rejections --------------------------------------------------------


class _NullTransport:
    def abort(self) -> None:
        pass


def _receive(substrate: AioOverlayNetwork, wire: bytes) -> None:
    """Play ``wire`` into the backend as one inbound connection, then drive."""
    substrate._ensure_loop()
    inbound = _Inbound(substrate)
    inbound.connection_made(_NullTransport())
    inbound.data_received(wire)
    inbound.connection_lost(None)
    substrate.drive()


@pytest.fixture
def substrate():
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    yield substrate
    substrate.close()


def test_aio_rejects_an_unknown_batch_id_naming_the_connection(substrate):
    wire = encode_frame(b"a\x00b") + encode_frame(BATCH_HEADER.pack(17, 1))
    with pytest.raises(PacketFormatError, match="a→b: unknown batch id 17"):
        _receive(substrate, wire + encode_frame(b"payload"))


def test_aio_rejects_a_batch_header_of_the_wrong_length(substrate):
    wire = encode_frame(b"a\x00b") + encode_frame(b"seven b")
    with pytest.raises(
        PacketFormatError, match="a→b: batch header of 7 bytes, expected 12"
    ):
        _receive(substrate, wire)


def test_aio_reports_how_much_of_a_batch_arrived_before_the_connection_closed(
    substrate,
):
    # Three cells that only fit one to a payload frame.
    cells = [bytes([fill]) * (MAX_FRAME_BYTES // 2 + 1) for fill in range(3)]
    substrate.transmit_blobs("a", "b", cells, lambda *_: None)
    (batch_id,) = substrate._pending
    wire = (
        encode_frame(b"a\x00b")
        + encode_frame(BATCH_HEADER.pack(batch_id, 3))
        + encode_frame(encode_frame(cells[0]))
    )
    with pytest.raises(
        PacketFormatError,
        match=f"a→b: connection closed after 1 of the 3 frames of batch {batch_id}",
    ):
        _receive(substrate, wire)


def _cells(*cells: bytes) -> bytes:
    """One payload frame holding ``cells``."""
    return encode_frame(b"".join(encode_frame(cell) for cell in cells))


@pytest.mark.parametrize(
    ("hello", "frame_count", "payload", "message"),
    [
        (b"b\x00a", 1, _cells(b"one", b"two", b"three"), "b→a: batch 1 was sent on a→b"),
        (
            b"a\x00b",
            2,
            _cells(b"one", b"two") + _cells(b"three"),
            "a→b: batch 1 announces 2 payload frames, 1 were sent",
        ),
        (
            b"a\x00b",
            1,
            _cells(b"one", b"two"),
            "a→b: batch 1 carried 2 items, 3 were sent",
        ),
        (b"a\x00b", 1, encode_frame(b"\x00\x00"), "a→b: truncated frame header"),
    ],
    ids=["wrong-link", "frame-count", "item-count", "malformed-cell"],
)
def test_aio_checks_an_arriving_batch_against_what_was_sent(
    substrate, hello, frame_count, payload, message
):
    substrate.transmit_blobs("a", "b", [b"one", b"two", b"three"], lambda *_: None)
    assert list(substrate._pending) == [1]
    wire = encode_frame(hello) + encode_frame(BATCH_HEADER.pack(1, frame_count))
    with pytest.raises(PacketFormatError, match=message):
        _receive(substrate, wire + payload)


def test_aio_names_the_connection_of_a_malformed_packet(substrate):
    block = CodedBlock(np.zeros(2, np.uint8), np.zeros(8, np.uint8))
    packet = Packet(flow_id=1, kind=PacketKind.DATA, slices=[block], d=2)
    substrate.transmit_packets("a", "b", [packet, packet], lambda *_: None)
    bad = bytearray(packet.to_bytes() * 2)
    bad[len(bad) // 2 + 8] = 7  # the second packet's kind byte
    wire = encode_frame(b"a\x00b") + encode_frame(BATCH_HEADER.pack(1, 1))
    with pytest.raises(PacketFormatError, match="a→b: unknown packet kind 7"):
        _receive(substrate, wire + encode_frame(bytes(bad)))


@pytest.mark.parametrize("hello", [b"\xff\xfe\x00b", b"no separator", b"a\x00b\x00c"])
def test_aio_rejects_a_malformed_hello_frame(substrate, hello):
    with pytest.raises(PacketFormatError, match="malformed hello frame"):
        _receive(substrate, encode_frame(hello))


def test_aio_stall_watchdog_names_the_wedged_batch(monkeypatch):
    """A batch that never reaches its socket trips the watchdog, not a hang."""
    monkeypatch.setattr("repro.overlay.aio.DEFAULT_STALL_TIMEOUT", 0.2)
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    sends = []
    # The connection is dialled, but neither its hello nor the batch is written.
    monkeypatch.setattr(_Outbound, "send", lambda link, payloads: sends.append(payloads))
    try:
        substrate.transmit_blob("a", "b", b"wedged", lambda blob: None)
        with pytest.raises(
            SimulationError,
            match=r"aio backend stalled: 1 batch\(es\) in flight made no progress for 0.2s",
        ):
            substrate.sim.run()
    finally:
        substrate.close()
    assert len(sends) == 2  # the hello and the batch, neither written
    assert substrate._loop is None
    with pytest.raises(SimulationError, match="closed"):
        substrate.transmit_blob("a", "b", b"late", lambda blob: None)


def test_aio_stall_watchdog_counts_a_batch_wedged_after_its_header(monkeypatch):
    """A batch whose header is read but whose payload never arrives still counts."""
    monkeypatch.setattr("repro.overlay.aio.DEFAULT_STALL_TIMEOUT", 0.2)
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    send = _Outbound.send
    # The hello goes out whole; of a batch, only its header frame.
    monkeypatch.setattr(_Outbound, "send", lambda link, payloads: send(link, list(payloads)[:1]))
    try:
        substrate.transmit_blob("a", "b", b"wedged", lambda blob: None)
        with pytest.raises(
            SimulationError,
            match=r"1 batch\(es\) in flight made no progress for 0.2s "
            r"\(waiting for batch 1 on a→b\)",
        ):
            substrate.sim.run()
    finally:
        substrate.close()


def test_aio_stall_watchdog_measures_time_without_progress(monkeypatch):
    """The watchdog runs from the last delivery, not from the start of the drain.

    Sixteen deliveries, each 10x shorter than the timeout, that take longer
    than the timeout together: every one is progress, so the drain completes.
    """
    monkeypatch.setattr("repro.overlay.aio.DEFAULT_STALL_TIMEOUT", 0.5)
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    hops = []

    def hop(blob):
        time.sleep(0.05)
        hops.append(blob)
        if len(hops) < 16:
            sender, receiver = ("b", "a") if len(hops) % 2 else ("a", "b")
            substrate.transmit_blob(sender, receiver, blob, hop)

    try:
        substrate.transmit_blob("a", "b", b"hop", hop)
        substrate.sim.run()
    finally:
        substrate.close()
    assert hops == [b"hop"] * 16


def test_an_oversized_frame_fails_only_its_own_batch(substrate, monkeypatch):
    # A delivery callback sends three batches on one connection, the middle
    # one a frame over the bound: the drain fails, the other two still land.
    monkeypatch.setattr("repro.overlay.aio.DEFAULT_STALL_TIMEOUT", 2.0)
    landed = []

    def reply(_blob):
        for blob in (b"before", bytes(MAX_FRAME_BYTES), b"after"):
            substrate.transmit_blob("b", "a", blob, landed.append)

    substrate.transmit_blob("a", "b", b"ping", reply)
    with pytest.raises(PacketFormatError, match="over the"):
        substrate.sim.run()
    substrate.sim.run()
    assert landed == [b"before", b"after"]


def test_an_oversized_packet_batch_leaves_its_inbox(monkeypatch):
    # With no serialisation time, a small and an oversized batch sent to one
    # receiver at once land at one instant, in one inbox: the oversized one
    # fails the drain and leaves it, and the other is still delivered.  Alone,
    # an oversized batch leaves its inbox empty, and an empty inbox delivers
    # nothing.
    monkeypatch.setattr("repro.overlay.aio.DEFAULT_STALL_TIMEOUT", 2.0)
    network = uniform_network(["a", "b", "c"], 0.001, NodeResources())
    substrate = AioOverlayNetwork(network, connection_bps=float("inf"))

    def packet(slice_count):
        block = CodedBlock(np.zeros(2, np.uint8), np.zeros(65_000, np.uint8))
        return Packet(flow_id=1, kind=PacketKind.SETUP, slices=[block] * slice_count, d=2)

    oversized = packet(70)
    assert oversized.size_bytes() > MAX_FRAME_BYTES
    delivered = []

    def deliver(packets, arrivals):
        delivered.append([item.slice_count for item in packets])

    try:
        substrate.transmit_packets("a", "b", [packet(1)], deliver)
        substrate.transmit_packets("c", "b", [oversized], deliver)
        assert substrate.sim.batched_events == 1
        with pytest.raises(PacketFormatError, match="over the"):
            substrate.sim.run()
        substrate.sim.run()
        assert delivered == [[1]]
        substrate.transmit_packets("c", "b", [oversized], deliver)
        with pytest.raises(PacketFormatError, match="over the"):
            substrate.sim.run()
        events = substrate.sim.events_processed
        substrate.sim.run()
        assert delivered == [[1]] and substrate.sim.events_processed == events + 1
    finally:
        substrate.close()


def test_a_lost_connection_fails_the_drain_at_once(substrate, monkeypatch):
    # Not the stall watchdog's SimulationError, some seconds later.
    monkeypatch.setattr("repro.overlay.aio.DEFAULT_STALL_TIMEOUT", 10.0)
    substrate.transmit_blob("a", "b", b"first", lambda blob: None)
    substrate.sim.run()
    (inbound,) = substrate._inbound
    inbound.transport.abort()  # the receiving end drops the connection
    substrate.transmit_blob("a", "b", b"second", lambda blob: None)
    with pytest.raises(ConnectionError):
        substrate.sim.run()


# -- batch columns are read-only ---------------------------------------------------


@pytest.mark.parametrize("backend", ["sim", "aio"])
def test_a_relay_cannot_write_into_a_batch_it_received(backend, monkeypatch):
    # Relays keep received batches by reference, so every column a relay is
    # handed (source stacks, forwarded rows, regenerated slices, received
    # frames) must refuse an in-place write.
    received = []
    handle_packets = Relay.handle_packets

    def recording(relay, packets, now=0.0):
        received.extend(item for item in packets if type(item) is PacketBatch)
        return handle_packets(relay, packets, now)

    monkeypatch.setattr(Relay, "handle_packets", recording)
    substrate, runtime, relays, destination = prepare_scheme_transfer(
        "slicing", LAN_PROFILE, 4, 2, 3, 42, "batched", backend
    )
    try:
        runtime.establish(relays, destination)
        substrate.sim.run()
        stage = runtime.flow.graph.stages[2]
        substrate.fail_node(next(address for address in stage if address != destination))
        runtime.send_messages([bytes([seq]) * 1500 for seq in range(20)])
        substrate.sim.run()
        assert len(runtime.delivered_plaintexts()) == 20
        assert runtime.relay_counters()["regenerated_slices"] > 0
    finally:
        substrate.close()
    assert received
    # A relay's partial forward (a row selection) is read-only too.
    batch = next(batch for batch in received if len(batch) > 1)
    received.append(batch.forward([0], batch.flow_id, batch.lane, "relay", "child"))
    for batch in received:
        for column in (batch.coefficients, batch.payloads):
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] ^= 1
