"""Property tests for the aio backend's wire format.

:meth:`Packet.to_bytes` / :meth:`Packet.from_bytes` define a packet's wire
bytes; the socket backend ships a batch as those bytes back to back in a
length-prefixed payload frame (:func:`pack_packets`) and parses it back as
one byte matrix (:func:`unpack_packets`), data packets as column batches
(:class:`PacketBatch`).  These tests pin the scalar round trip across all
slot layouts with hypothesis, hold the batch codec to the scalar reference
packet by packet, check that truncated, oversized and malformed input is
rejected rather than mis-parsed, and run figs. 11-15 with every burst
round-tripped through the codec (``tests/oracles/wire.py``).
"""

import select
import socket
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coder import CodedBlock
from repro.core.errors import PacketFormatError
from repro.core.packet import (
    Packet,
    PacketBatch,
    PacketKind,
    pack_packets,
    packet_count,
    unpack_packets,
)
from repro.experiments import throughput
from repro.experiments.runner import run_experiment
from repro.overlay.aio import (
    _IOV_MAX,
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    AioOverlayNetwork,
    _Connection,
    _wire,
    decode_frames,
    encode_frame,
)
from repro.overlay.profiles import LAN_PROFILE

from oracles.dataplane import batch_packets
from oracles.wire import WireOverlayNetwork
from strategies import packet_batches, packet_runs, packets


@given(packet=packets())
@settings(max_examples=150, deadline=None)
def test_packet_survives_frame_round_trip(packet):
    frame = encode_frame(packet.to_bytes())
    (payload,) = decode_frames(frame)
    parsed = Packet.from_bytes(payload, source_address="a", destination_address="b")
    assert parsed.to_bytes() == packet.to_bytes()
    assert parsed.flow_id == packet.flow_id
    assert parsed.kind == packet.kind
    assert parsed.d == packet.d
    assert parsed.lane == packet.lane
    assert parsed.seq == packet.seq
    assert len(parsed.slices) == len(packet.slices)
    assert parsed.size_bytes() == packet.size_bytes() == len(payload)
    for original, decoded in zip(packet.slices, parsed.slices):
        assert np.array_equal(original.coefficients, decoded.coefficients)
        assert np.array_equal(original.payload, decoded.payload)


@given(packet_list=st.lists(packets(), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_concatenated_frames_decode_in_order(packet_list):
    wire = b"".join(encode_frame(p.to_bytes()) for p in packet_list)
    payloads = decode_frames(wire)
    assert payloads == [p.to_bytes() for p in packet_list]


# -- the batch codec against the scalar reference -----------------------------------


def _assert_parses_like_the_reference(batch):
    """``unpack_packets`` == ``Packet.from_bytes`` per packet, field by field."""
    parsed = batch_packets(unpack_packets(pack_packets(batch), "a", "b"))
    reference = [Packet.from_bytes(p.to_bytes(), "a", "b") for p in batch]
    assert len(parsed) == len(reference)
    for got, want in zip(parsed, reference):
        for name in ("flow_id", "kind", "d", "lane", "seq"):
            assert getattr(got, name) == getattr(want, name), name
        assert len(got.slices) == len(want.slices)
        assert (got.source_address, got.destination_address) == ("a", "b")
        assert got.size_bytes() == want.size_bytes()
        for got_slice, want_slice in zip(got.slices, want.slices):
            assert np.array_equal(got_slice.coefficients, want_slice.coefficients)
            assert np.array_equal(got_slice.payload, want_slice.payload)
            assert got_slice.index == want_slice.index


@given(batch=st.one_of(packet_runs(), st.lists(packets(), max_size=5)))
@settings(max_examples=100, deadline=None)
def test_a_packed_batch_is_the_packets_wire_bytes_back_to_back(batch):
    assert pack_packets(batch) == b"".join(p.to_bytes() for p in batch)


@given(run=packet_runs())
@settings(max_examples=100, deadline=None)
def test_a_uniform_run_parses_like_the_scalar_reference(run):
    _assert_parses_like_the_reference(run)


# Half the packets share d and slice size, so runs of several rows, runs of one
# and shape changes in kind or slice count alone all occur inside one buffer.
@given(batch=st.lists(st.one_of(packets(), packets(d=2, payload_bytes=8)), max_size=6))
@settings(max_examples=100, deadline=None)
def test_a_mixed_shape_batch_parses_like_the_scalar_reference(batch):
    _assert_parses_like_the_reference(batch)


def _block(d, payload_bytes, fill):
    return CodedBlock(np.full(d, fill, np.uint8), np.full(payload_bytes, fill, np.uint8))


def _packet(d=2, payload_bytes=8, slice_count=2, kind=PacketKind.DATA, seq=0):
    blocks = [_block(d, payload_bytes, seq + index) for index in range(slice_count)]
    return Packet(flow_id=5, kind=kind, slices=blocks, d=d, lane=1, seq=seq)


@pytest.mark.parametrize(
    "odd_one",
    [
        _packet(payload_bytes=18, slice_count=1, seq=9),  # other slice_bytes
        _packet(d=3, payload_bytes=7, seq=9),  # other d
        _packet(kind=PacketKind.SETUP, seq=9),  # other kind
    ],
    ids=["slice_bytes", "d", "kind"],
)
@pytest.mark.parametrize("position", [1, 3])
def test_a_row_of_equal_size_but_another_shape_is_cut_on_its_own_header(
    odd_one, position
):
    """Same packet size, so the buffer still divides into rows — by row 0's shape."""
    batch = [_packet(seq=seq) for seq in range(4)]
    assert odd_one.size_bytes() == batch[0].size_bytes()
    batch[position] = odd_one
    _assert_parses_like_the_reference(batch)


def _data_row(seq, **changes):
    """A one-slice data packet of flow 5, lane 1, with ``changes`` applied."""
    return replace(_packet(slice_count=1, seq=seq), **changes)


# One variant per header byte the parser compares: 8-12 are the run's shape
# (kind, slice count, both bytes of the slice size, d), 7 and 13 cut a data
# run (the flow id's low byte, the lane).
_ONE_BYTE_VARIANTS = {
    7: dict(flow_id=4),
    8: dict(kind=PacketKind.SETUP),
    9: dict(slices=[_block(2, 8, 9)] * 2),
    10: dict(slices=[_block(2, 8 + 256, 9)]),
    11: dict(slices=[_block(2, 9, 9)]),
    12: dict(slices=[_block(3, 7, 9)], d=3),
    13: dict(lane=0),
}


@pytest.mark.parametrize("byte", sorted(_ONE_BYTE_VARIANTS))
@pytest.mark.parametrize("position", [1, 3])
def test_a_row_that_differs_in_one_header_byte_ends_or_cuts_the_run_there(byte, position):
    batch = [_data_row(seq) for seq in range(5)]
    batch[position] = _data_row(position, **_ONE_BYTE_VARIANTS[byte])
    odd, base = batch[position].to_bytes(), batch[0].to_bytes()
    assert [i for i in range(14) if odd[i] != base[i]] == [byte]  # the header up to the seq
    parsed = unpack_packets(pack_packets(batch), "a", "b")
    assert [packet_count(item) for item in parsed] == [position, 1, 4 - position]
    _assert_parses_like_the_reference(batch)


def _patched(offset, value):
    """A well-formed packet's bytes with one header byte overwritten."""
    wire = bytearray(_packet().to_bytes())
    wire[offset] = value
    return bytes(wire)


_GOOD = _packet().to_bytes()


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        (_patched(8, 7), "unknown packet kind 7"),
        (_patched(9, 0), "slice_count = 0"),
        (_patched(12, 0), "d = 0"),
        (_patched(12, 11), "slice_bytes = 10, shorter than its d = 11"),
        (_GOOD[:-3], "truncated|does not match header"),
        (_GOOD[:7], "shorter than"),
    ],
    ids=["kind", "no-slices", "no-d", "short-slice", "truncated", "no-header"],
)
def test_both_parsers_reject_a_malformed_packet_naming_the_field(bad, message):
    """Alone through the scalar parser, and as a later row of a batch."""
    with pytest.raises(PacketFormatError, match=message):
        Packet.from_bytes(bad)
    with pytest.raises(PacketFormatError, match=message):
        unpack_packets(_GOOD + _GOOD + bad)


def test_a_buffer_that_is_not_whole_packets_is_rejected():
    half = len(_GOOD) // 2
    with pytest.raises(PacketFormatError, match="truncated"):
        unpack_packets(_GOOD + _GOOD + _GOOD[:half])  # not a multiple of the size
    with pytest.raises(PacketFormatError, match="5 trailing bytes"):
        unpack_packets(_GOOD + _GOOD + bytes(5))


def test_a_batch_over_the_frame_bound_splits_between_packets_and_round_trips():
    batch = [_packet(payload_bytes=64_998, slice_count=1, seq=seq) for seq in range(70)]
    assert sum(p.size_bytes() for p in batch) > MAX_FRAME_BYTES
    network = LAN_PROFILE.build_network(["a", "b"], np.random.default_rng(0))
    substrate = AioOverlayNetwork(network, connection_bps=30e6)
    try:
        delivered = []
        substrate.transmit_packets(
            "a", "b", batch, lambda packets, arrivals: delivered.extend(packets)
        )
        frames = _queued_payload_frames(substrate)
        assert len(frames) == 2
        assert all(len(frame) <= MAX_FRAME_BYTES for frame in frames)
        assert sum(len(batch_packets(unpack_packets(frame))) for frame in frames) == 70
        substrate.drive()
        assert pack_packets(delivered) == pack_packets(batch)
    finally:
        substrate.close()


def _queued_payload_frames(substrate):
    """The payload frames queued on connection a→b: what follows its hello and one batch header."""
    hello, header, *frames = decode_frames(b"".join(substrate._links["a", "b"].queue))
    assert hello == b"a\x00b" and len(header) == 12
    return frames


# -- column batches -------------------------------------------------------------------


@given(batch=packet_batches())
@settings(max_examples=100, deadline=None)
def test_a_column_batch_is_its_packets_wire_bytes_back_to_back(batch):
    wire = batch.to_bytes()
    assert wire == b"".join(p.to_bytes() for p in batch_packets([batch]))
    assert batch.size_bytes() == len(wire) == len(batch) * batch.packet_size


@given(
    batches=st.lists(packet_batches(flow_ids=[1, 2], lanes=[0, 1], d=2, payload_bytes=8,
                                    max_rows=6), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_a_received_batch_is_re_sent_from_its_wire_rows(batches, data):
    # Parsed off a frame (one run, or one cut where the flow id or lane
    # changes), forwarded with all rows or a subset, re-addressed and split:
    # the wire-row path writes the bytes of the fill path and of the scalar
    # reference.
    for parsed in unpack_packets(pack_packets(batches), "a", "b"):
        assert parsed.wire is not None
        count = len(parsed)
        subset = data.draw(st.lists(st.integers(0, count - 1), min_size=1, unique=True),
                           label="rows forwarded").copy()
        subset.sort()
        flow_id = data.draw(st.integers(0, 2**64 - 1), label="child flow id")
        lane = data.draw(st.integers(0, 255), label="child lane")
        cut = data.draw(st.integers(0, count), label="split at")
        for rows in (list(range(count)), subset):
            forwarded = parsed.forward(rows, flow_id, lane, "b", "c")
            for batch in (parsed, forwarded, forwarded[:cut], forwarded[cut:]):
                if not len(batch):
                    continue
                wire = batch.to_bytes()
                assert wire == replace(batch, wire=None).to_bytes()
                assert wire == b"".join(p.to_bytes() for p in batch_packets([batch]))
                assert not batch.payloads.flags.writeable


def _merged(items):
    """``items`` with neighbouring batches of one flow, lane and size joined:
    what the parser hands back, since it cuts a run only where those change."""
    merged = []
    for item in items:
        last = merged[-1] if merged else None
        if (
            isinstance(item, PacketBatch)
            and isinstance(last, PacketBatch)
            and (last.flow_id, last.lane, last.d, last.packet_size)
            == (item.flow_id, item.lane, item.d, item.packet_size)
        ):
            item = PacketBatch(
                item.flow_id, item.d, item.lane, last.seqs + item.seqs,
                np.concatenate((last.coefficients, item.coefficients)),
                np.concatenate((last.payloads, item.payloads)),
            )
            merged.pop()
        merged.append(item)
    return merged


# Two flow ids, two lanes and one shape for most batches, so same-shape runs
# change flow or lane mid-run; setup packets of the same size cut them too.
@given(
    items=st.lists(
        st.one_of(
            packet_batches(flow_ids=[1, 2], lanes=[0, 1], d=2, payload_bytes=8),
            packet_batches(flow_ids=[1, 2], lanes=[0, 1]),
            packets(d=2, payload_bytes=8, slice_count=1, kind=PacketKind.SETUP),
            packets(kind=PacketKind.SETUP),
        ),
        max_size=6,
    )
)
@settings(max_examples=150, deadline=None)
def test_setup_packets_and_data_runs_round_trip_as_the_same_items(items):
    parsed = unpack_packets(pack_packets(items), "a", "b")
    want = _merged(items)
    assert [type(item) for item in parsed] == [type(item) for item in want]
    for got, expected in zip(parsed, want):
        assert (got.source_address, got.destination_address) == ("a", "b")
        if isinstance(expected, PacketBatch):
            assert (got.flow_id, got.d, got.lane, got.seqs) == (
                expected.flow_id, expected.d, expected.lane, expected.seqs
            )
            assert np.array_equal(got.coefficients, expected.coefficients)
            assert np.array_equal(got.payloads, expected.payloads)
            assert not got.payloads.flags.writeable  # a view into the frame
        else:
            assert got.to_bytes() == expected.to_bytes()
    _assert_parses_like_the_reference(batch_packets(items))


def test_a_batch_over_the_frame_bound_splits_between_two_of_its_rows():
    rows, block = 70, 64_998
    batch = PacketBatch(
        flow_id=5, d=2, lane=1, seqs=list(range(rows)),
        coefficients=np.ones((rows, 2), np.uint8),
        payloads=np.arange(rows * block, dtype=np.uint64).astype(np.uint8).reshape(rows, block),
    )
    assert batch.size_bytes() > MAX_FRAME_BYTES
    network = LAN_PROFILE.build_network(["a", "b"], np.random.default_rng(0))
    substrate = AioOverlayNetwork(network, connection_bps=30e6)
    try:
        delivered = []
        substrate.transmit_packets(
            "a", "b", [batch], lambda items, arrivals: delivered.extend(items)
        )
        frames = _queued_payload_frames(substrate)
        assert len(frames) == 2
        assert all(len(frame) <= MAX_FRAME_BYTES for frame in frames)
        # Every frame holds whole packets: each parses on its own.
        halves = [unpack_packets(frame) for frame in frames]
        assert [len(items) for items in halves] == [1, 1]
        assert sum(len(items[0]) for items in halves) == rows
        substrate.drive()
        assert [len(item) for item in delivered] == [len(items[0]) for items in halves]
        assert pack_packets(delivered) == batch.to_bytes()
    finally:
        substrate.close()


# -- figures through the codec -------------------------------------------------------


def test_overlay_figures_over_the_wire_codec_equal_the_simulator(monkeypatch):
    """Figs. 11-15 with every packet batch and cell parsed back from its wire
    bytes: the same rows as the simulator's, parity sub-dicts included."""
    names = ("fig11", "fig12", "fig13", "fig14", "fig15")
    sim = {name: run_experiment(name, scale=0.02).rows for name in names}
    built = []

    def wire_substrate(backend, network, connection_bps):
        assert backend == "sim"
        built.append(WireOverlayNetwork(network, connection_bps=connection_bps))
        return built[-1]

    monkeypatch.setattr(throughput, "build_substrate", wire_substrate)
    for name in names:
        built.clear()
        assert run_experiment(name, scale=0.02).rows == sim[name], name
        assert sum(substrate.stats.packets_sent for substrate in built) > 0, name


# -- frames -------------------------------------------------------------------------


@given(packet=packets(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_truncated_frames_are_rejected(packet, data):
    frame = encode_frame(packet.to_bytes())
    cut = data.draw(st.integers(1, len(frame) - 1), label="cut")
    with pytest.raises(PacketFormatError):
        decode_frames(frame[:cut])


@given(block=st.builds(bytes, st.lists(st.integers(0, 255), max_size=64)))
@settings(max_examples=50, deadline=None)
def test_raw_blob_frames_round_trip(block):
    assert decode_frames(encode_frame(block)) == [block]


def test_oversized_frame_is_rejected_on_decode():
    wire = FRAME_HEADER.pack(MAX_FRAME_BYTES + 1) + b"x"
    with pytest.raises(PacketFormatError):
        decode_frames(wire)


def test_oversized_payload_is_rejected_on_encode():
    with pytest.raises(PacketFormatError):
        encode_frame(bytes(MAX_FRAME_BYTES + 1))


def _connection(cls=_Connection) -> _Connection:
    """A connection over a socket pair: both ends non-blocking, as the backend's are."""
    outbound, inbound = socket.socketpair()
    outbound.setblocking(False)
    inbound.setblocking(False)
    return cls(outbound, inbound, {})


class _Recording(_Connection):
    """A connection that records every whole frame it parses, and nothing else."""

    def frame_received(self, frame: bytes) -> None:
        self.received.append(frame)


def _read_chunks(chunks: list[bytes]) -> list[bytes]:
    """The frames a connection parses out of ``chunks``, then an end of stream.

    Each chunk is written to the socket and read until the socket holds
    nothing; a rejection raises from the read, as it does in a landing.
    """
    connection = _connection(_Recording)
    connection.received = []
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:
                view = view[connection.outbound.send(view):]
                while connection.receive():
                    pass
        connection.outbound.shutdown(socket.SHUT_WR)
        while True:
            select.select([connection.inbound], [], [], 5.0)
            if connection.receive() == 0:
                break
    finally:
        connection.close()
    return connection.received


def _read_from(data: bytes, step: int | None = None) -> list[bytes]:
    """:func:`_read_chunks` of ``data``, ``step`` bytes at a time (default: all at once)."""
    step = step or len(data) or 1
    return _read_chunks([data[index : index + step] for index in range(0, len(data), step)])


def _written(connection: _Connection) -> bytes:
    """Push ``connection``'s queue until it is empty; the bytes its far end received."""
    received = bytearray()
    while True:
        left = connection.push()
        try:
            while chunk := connection.inbound.recv(1 << 20):
                received += chunk
        except BlockingIOError:
            pass
        if not left:
            return bytes(received)


@given(frames=st.lists(st.binary(max_size=256), max_size=12), data=st.data())
@settings(max_examples=50, deadline=None)
def test_a_batch_of_frames_leaves_as_the_encode_frame_reference(frames, data):
    # What is queued before a push leaves first, in order.
    cut = data.draw(st.integers(0, len(frames)), label="queued before the first push")
    connection = _connection()
    try:
        connection.queue += _wire(frames[:cut])
        connection.push()
        connection.queue += _wire(frames[cut:])
        wire = _written(connection)
    finally:
        connection.close()
    assert wire == b"".join(encode_frame(frame) for frame in frames)
    assert decode_frames(wire) == frames


class _Kernel:
    """A sending end that takes at most ``room`` bytes per ``sendmsg`` and records each call."""

    def __init__(self, room: int) -> None:
        self.room = room
        self.calls: list[list] = []

    def sendmsg(self, buffers) -> int:
        self.calls.append(list(buffers))
        return min(self.room, sum(map(len, self.calls[-1])))


def test_a_push_is_one_sendmsg_of_the_queued_frames_and_an_unsent_tail_stays_queued():
    payloads = [b"a" * 10, b"b" * 20, b"c" * 30]
    kernel = _Kernel(room=4 + 10 + 4 + 5)  # the first frame and 5 bytes of the second
    connection = _Connection(kernel, None, {})
    queued = _wire(payloads)
    connection.queue += queued
    assert connection.push()
    # One call, handed the queued pieces themselves: no join, no copy.
    ((*buffers,),) = kernel.calls
    assert all(got is want for got, want in zip(buffers, queued))
    # The second payload's unsent tail leads the queue, as a view of it.
    assert bytes(connection.queue[0]) == b"b" * 15
    assert connection.queue[1:] == queued[4:]
    kernel.room = 1 << 20
    assert not connection.push() and connection.queue == []
    sent = b"".join(bytes(piece) for piece in kernel.calls[0])[:23]
    sent += b"".join(bytes(piece) for piece in kernel.calls[1])
    assert sent == b"".join(map(encode_frame, payloads))


def test_a_push_hands_the_kernel_at_most_iov_max_buffers():
    kernel = _Kernel(room=1 << 30)
    connection = _Connection(kernel, None, {})
    connection.queue += _wire([b"x"] * _IOV_MAX)  # twice IOV_MAX pieces
    assert connection.push()
    assert len(kernel.calls[0]) == _IOV_MAX and len(connection.queue) == _IOV_MAX
    assert not connection.push() and connection.queue == []


def test_an_oversized_frame_fails_the_batch_before_anything_is_written():
    with pytest.raises(PacketFormatError, match="over the"):
        _wire([b"ok", bytes(MAX_FRAME_BYTES + 1)])
    # On the backend: the batch is never queued, and no connection is dialled for it.
    network = LAN_PROFILE.build_network(["a", "b"], np.random.default_rng(0))
    substrate = AioOverlayNetwork(network, connection_bps=30e6)
    try:
        substrate.transmit_blobs("a", "b", [b"ok", bytes(MAX_FRAME_BYTES)], lambda *_: None)
        assert substrate._links == {} and substrate._pending == {}
        with pytest.raises(PacketFormatError, match="over the"):
            substrate.sim.run()
    finally:
        substrate.close()


def test_stream_read_frame_round_trip_and_eof():
    payload = b"hello overlay"
    assert _read_from(encode_frame(payload)) == [payload]
    assert _read_from(encode_frame(b"")) == [b""]
    # Clean EOF between frames: no frame, no error (the peer closed).
    assert _read_from(b"") == []


def test_stream_read_frame_rejects_truncation():
    frame = encode_frame(b"hello overlay")
    with pytest.raises(PacketFormatError):
        _read_from(frame[:2])  # inside the length prefix
    with pytest.raises(PacketFormatError):
        _read_from(frame[:-3])  # inside the payload
    with pytest.raises(PacketFormatError):
        _read_from(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))  # oversized declaration


@given(messages=st.lists(st.binary(max_size=256), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_frames_round_trip_one_byte_at_a_time(messages):
    assert _read_from(b"".join(map(encode_frame, messages)), step=1) == messages


def test_size_violations_raise_packet_format_error_and_the_bound_is_legal():
    with pytest.raises(PacketFormatError, match="over the"):
        encode_frame(bytes(MAX_FRAME_BYTES + 1))
    with pytest.raises(PacketFormatError, match="over the"):
        _read_from(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
    # A frame of exactly MAX_FRAME_BYTES is legal on send and on read.
    payload = bytes(MAX_FRAME_BYTES)
    connection = _connection()
    try:
        connection.queue += _wire([payload])
        wire = _written(connection)
    finally:
        connection.close()
    assert _read_from(wire) == [payload]
