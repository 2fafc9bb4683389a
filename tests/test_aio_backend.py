"""The socket backend: backend parity and lifecycle.

The ``aio`` backend runs the simulator's event order, so every protocol
runtime (slicing, onion, Sphinx) must produce the same whole result on it
as on the discrete-event simulator under a shared seed: delivered
plaintexts, relay and network counters, and every virtual-time field
(throughput, setup latency, events processed), on the LAN and the
PlanetLab profile.  These are the in-process versions of what the CI
``aio-parity`` job asserts across whole figure artifacts.
"""

import gc
import os
import socket
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from repro.core.errors import PacketFormatError, SimulationError
from repro.experiments.runner import Job, run_experiment
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
    _Connection,
    decode_frames,
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


def _binds(host: str, family: socket.AddressFamily) -> bool:
    try:
        socket.create_server((host, 0), family=family).close()
    except OSError:
        return False
    return True


@pytest.mark.parametrize(
    ("host", "family"),
    [
        ("localhost", socket.getaddrinfo("localhost", 0, type=socket.SOCK_STREAM)[0][0]),
        pytest.param(
            "::1", socket.AF_INET6,
            marks=pytest.mark.skipif(
                not _binds("::1", socket.AF_INET6), reason="this host has no IPv6 loopback"
            ),
        ),
    ],
    ids=["localhost", "::1"],
)
def test_a_bind_host_gives_every_connection_its_address_family(host, family):
    # The family is the first of getaddrinfo(bind_host), as asyncio's
    # create_server took it; both ends of a connection are on that interface.
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6, bind_host=host)
    delivered = []
    try:
        substrate.transmit_blob("a", "b", b"ping", delivered.append)
        substrate.transmit_blob("b", "a", b"pong", delivered.append)
        substrate.sim.run()
        assert delivered == [b"ping", b"pong"]
        assert len(substrate._links) == 2
        for connection in substrate._links.values():
            assert connection.outbound.family == connection.inbound.family == family
            assert connection.inbound.getpeername() == connection.outbound.getsockname()
    finally:
        substrate.close()


def test_an_aio_transfer_never_imports_asyncio():
    """The socket backend runs on the simulator's loop: asyncio stays unimported."""
    script = (
        "import sys\n"
        "from repro.experiments.throughput import prepare_scheme_transfer, transfer_throughput\n"
        "from repro.overlay.profiles import LAN_PROFILE\n"
        "substrate, runtime, relays, destination = prepare_scheme_transfer(\n"
        "    'slicing', LAN_PROFILE, 2, 2, 2, 42, 'batched', 'aio')\n"
        "try:\n"
        "    assert transfer_throughput(runtime, relays, destination, 4, 1500)"
        ".messages_delivered == 4\n"
        "finally:\n"
        "    substrate.close()\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'asyncio'))\n"
    )
    source = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


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


def test_an_aio_run_over_pool_workers_writes_the_simulators_bytes(tmp_path):
    """fig14 on the sockets over two pool workers: a one-worker simulator run's bytes.

    The backend reaches each worker inside its payload's params and stays
    out of the artifact, so nothing is left to strip before comparing.
    """
    for backend, workers in (("sim", 1), ("aio", 2)):
        run_experiment(
            "fig14", scale=0.02, workers=workers, out_dir=tmp_path / backend, backend=backend
        )
    assert (tmp_path / "sim" / "fig14.json").read_bytes() == (
        tmp_path / "aio" / "fig14.json"
    ).read_bytes()
    assert sorted(path.name for path in tmp_path.rglob("*.json")) == ["fig14.json"] * 2


@pytest.mark.parametrize("name", ["fig11", "fig12", "fig13", "fig14", "fig15"])
def test_the_backend_travels_in_the_payloads_not_in_the_trials(name):
    sim, aio = Job(name, scale=0.02), Job(name, scale=0.02, backend="aio")
    assert sim.trials == aio.trials
    assert not any("backend" in trial for trial in sim.trials)
    for job in (sim, aio):
        assert [params for _, _, params, _ in job.payloads()] == [
            {**trial, "backend": job.backend} for trial in job.trials
        ]


def test_an_aio_run_is_recomputed_and_leaves_the_cached_bytes(tmp_path):
    assert run_experiment("fig14", scale=0.02, out_dir=tmp_path).cached is False
    artifact = tmp_path / "fig14.json"
    written = artifact.read_bytes()
    assert run_experiment("fig14", scale=0.02, out_dir=tmp_path, backend="aio").cached is False
    assert artifact.read_bytes() == written
    assert run_experiment("fig14", scale=0.02, out_dir=tmp_path).cached is True
    assert [path.name for path in tmp_path.iterdir()] == ["fig14.json"]


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


def test_a_data_burst_on_an_established_flow_opens_no_socket_and_dials_nothing(monkeypatch):
    """Batches go straight onto the connections the setup dialled."""
    substrate, runtime, relays, destination = prepare_scheme_transfer(
        "slicing", LAN_PROFILE, 4, 2, 3, 42, "batched", "aio"
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("a data burst opened a socket or dialled a connection")

    try:
        runtime.establish(relays, destination)
        substrate.sim.run()
        dialled = dict(substrate._links)
        # Every new socket object, accepted ones included, goes through socket.socket.
        monkeypatch.setattr(socket, "socket", forbidden)
        monkeypatch.setattr(AioOverlayNetwork, "_dial", forbidden)
        runtime.send_messages([bytes([seq]) * 1500 for seq in range(32)])
        substrate.sim.run()
        assert len(runtime.delivered_plaintexts()) == 32
        assert substrate._links == dialled
    finally:
        monkeypatch.undo()
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


def _receive(substrate: AioOverlayNetwork, wire: bytes, monkeypatch) -> None:
    """Drive with ``wire`` on connection a→b in place of the frames queued there.

    If no batch is in flight, a blob is sent first, so that a landing
    waits on the connection.  The connection's sending end shuts once
    ``wire`` is written, so the reader sees ``wire``, then the end of the stream.
    """
    if not substrate._pending:
        substrate.transmit_blob("a", "b", b"landing", lambda blob: None)
    connection = substrate._links["a", "b"]
    connection.queue[:] = [wire]
    push, shut = _Connection.push, []

    def push_then_shut(link):
        left = push(link)
        if link is connection and not left and not shut:
            link.outbound.shutdown(socket.SHUT_WR)
            shut.append(link)
        return left

    monkeypatch.setattr(_Connection, "push", push_then_shut)
    substrate.drive()


@pytest.fixture
def substrate():
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    yield substrate
    substrate.close()


def test_aio_rejects_an_unknown_batch_id_naming_the_connection(substrate, monkeypatch):
    wire = encode_frame(b"a\x00b") + encode_frame(BATCH_HEADER.pack(17, 1))
    with pytest.raises(PacketFormatError, match="a→b: unknown batch id 17"):
        _receive(substrate, wire + encode_frame(b"payload"), monkeypatch)


def test_aio_rejects_a_batch_header_of_the_wrong_length(substrate, monkeypatch):
    wire = encode_frame(b"a\x00b") + encode_frame(b"seven b")
    with pytest.raises(
        PacketFormatError, match="a→b: batch header of 7 bytes, expected 12"
    ):
        _receive(substrate, wire, monkeypatch)


def test_aio_reports_how_much_of_a_batch_arrived_before_the_connection_closed(
    substrate, monkeypatch
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
        _receive(substrate, wire, monkeypatch)


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
    substrate, monkeypatch, hello, frame_count, payload, message
):
    substrate.transmit_blobs("a", "b", [b"one", b"two", b"three"], lambda *_: None)
    assert list(substrate._pending) == [1]
    wire = encode_frame(hello) + encode_frame(BATCH_HEADER.pack(1, frame_count))
    with pytest.raises(PacketFormatError, match=message):
        _receive(substrate, wire + payload, monkeypatch)


def test_aio_names_the_connection_of_a_malformed_packet(substrate, monkeypatch):
    block = CodedBlock(np.zeros(2, np.uint8), np.zeros(8, np.uint8))
    packet = Packet(flow_id=1, kind=PacketKind.DATA, slices=[block], d=2)
    substrate.transmit_packets("a", "b", [packet, packet], lambda *_: None)
    bad = bytearray(packet.to_bytes() * 2)
    bad[len(bad) // 2 + 8] = 7  # the second packet's kind byte
    wire = encode_frame(b"a\x00b") + encode_frame(BATCH_HEADER.pack(1, 1))
    with pytest.raises(PacketFormatError, match="a→b: unknown packet kind 7"):
        _receive(substrate, wire + encode_frame(bytes(bad)), monkeypatch)


@pytest.mark.parametrize("hello", [b"\xff\xfe\x00b", b"no separator", b"a\x00b\x00c"])
def test_aio_rejects_a_malformed_hello_frame(substrate, monkeypatch, hello):
    with pytest.raises(PacketFormatError, match="malformed hello frame"):
        _receive(substrate, encode_frame(hello), monkeypatch)


def test_aio_stall_watchdog_names_the_wedged_batch(monkeypatch):
    """A batch that never reaches its socket trips the watchdog, not a hang."""
    monkeypatch.setattr("repro.overlay.aio.DEFAULT_STALL_TIMEOUT", 0.2)
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    try:
        substrate.transmit_blob("a", "b", b"wedged", lambda blob: None)
        # The connection is dialled, but neither its hello nor the batch is written.
        connection = substrate._links["a", "b"]
        wedged = b"".join(connection.queue)
        connection.queue.clear()
        with pytest.raises(
            SimulationError,
            match=r"aio backend stalled: 1 batch\(es\) in flight made no progress for 0.2s",
        ):
            substrate.sim.run()
    finally:
        substrate.close()
    assert decode_frames(wedged) == [
        b"a\x00b", BATCH_HEADER.pack(1, 1), encode_frame(b"wedged")
    ]
    assert substrate._links == {} and substrate._listeners == {}
    assert connection.outbound.fileno() == connection.inbound.fileno() == -1
    with pytest.raises(SimulationError, match="closed"):
        substrate.transmit_blob("a", "b", b"late", lambda blob: None)


def test_aio_stall_watchdog_counts_a_batch_wedged_after_its_header(monkeypatch):
    """A batch whose header is read but whose payload never arrives still counts."""
    monkeypatch.setattr("repro.overlay.aio.DEFAULT_STALL_TIMEOUT", 0.2)
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    try:
        substrate.transmit_blob("a", "b", b"wedged", lambda blob: None)
        # The hello goes out whole; of a batch, only its header frame.
        connection = substrate._links["a", "b"]
        header = encode_frame(b"a\x00b") + encode_frame(BATCH_HEADER.pack(1, 1))
        assert b"".join(connection.queue).startswith(header)
        connection.queue[:] = [header]
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
    # one a frame over the bound: its landing fails, the other two still land.
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
    # receiver at once land at one instant, in one inbox: the other one is
    # delivered, then the oversized one fails the landing.  Alone, an
    # oversized batch fails its landing, which delivers nothing.
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
        delivered.append([len(item.slices) for item in packets])

    try:
        substrate.transmit_packets("a", "b", [packet(1)], deliver)
        substrate.transmit_packets("c", "b", [oversized], deliver)
        assert substrate.sim.batched_events == 1
        with pytest.raises(PacketFormatError, match="over the"):
            substrate.sim.run()
        substrate.sim.run()
        assert delivered == [[1]]
        substrate.transmit_packets("c", "b", [oversized], deliver)
        events = substrate.sim.events_processed
        with pytest.raises(PacketFormatError, match="over the"):
            substrate.sim.run()
        substrate.sim.run()
        assert delivered == [[1]] and substrate.sim.events_processed == events + 1
    finally:
        substrate.close()


def test_a_lost_connection_fails_the_drain_at_once(substrate, monkeypatch):
    # Not the stall watchdog's SimulationError, some seconds later.
    monkeypatch.setattr("repro.overlay.aio.DEFAULT_STALL_TIMEOUT", 10.0)
    substrate.transmit_blob("a", "b", b"first", lambda blob: None)
    substrate.sim.run()
    # The receiving end drops the connection.
    substrate._links["a", "b"].inbound.shutdown(socket.SHUT_RDWR)
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
