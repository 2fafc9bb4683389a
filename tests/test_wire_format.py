"""Property tests for the aio backend's wire format.

The asyncio backend serialises every :class:`~repro.core.packet.Packet` with
:meth:`to_bytes`, wraps it in a length-prefixed frame, and parses it back on
the receiving side.  These tests drive that encode→decode round trip across
all slot layouts with hypothesis, and check that truncated and oversized
frames are rejected rather than mis-parsed.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import PacketFormatError
from repro.core.packet import Packet
from repro.net import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    AioChannel,
    decode_frames,
    encode_frame,
)

from strategies import packets


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
    assert parsed.slice_count == packet.slice_count
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


def _read_from(data: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await AioChannel(reader, None).recv_frame()

    return asyncio.run(go())


class _CapturingWriter:
    """The two StreamWriter members a channel's send path touches."""

    def __init__(self) -> None:
        self.wire = b""

    def writelines(self, chunks) -> None:
        self.wire += b"".join(chunks)

    async def drain(self) -> None:
        pass


@given(frames=st.lists(st.binary(max_size=256), max_size=12))
@settings(max_examples=50, deadline=None)
def test_a_batch_of_frames_leaves_as_the_encode_frame_reference(frames):
    writer = _CapturingWriter()
    asyncio.run(AioChannel(None, writer).send_frames(frames))
    assert writer.wire == b"".join(encode_frame(frame) for frame in frames)
    assert decode_frames(writer.wire) == frames


def test_an_oversized_frame_fails_the_batch_before_anything_is_written():
    writer = _CapturingWriter()
    with pytest.raises(PacketFormatError):
        asyncio.run(
            AioChannel(None, writer).send_frames([b"ok", bytes(MAX_FRAME_BYTES + 1)])
        )
    assert writer.wire == b""


def test_stream_read_frame_round_trip_and_eof():
    payload = b"hello overlay"
    assert _read_from(encode_frame(payload)) == payload
    assert _read_from(encode_frame(b"")) == b""
    # Clean EOF between frames: None (the peer closed).
    assert _read_from(b"") is None


def test_stream_read_frame_rejects_truncation():
    frame = encode_frame(b"hello overlay")
    with pytest.raises(PacketFormatError):
        _read_from(frame[:2])  # inside the length prefix
    with pytest.raises(PacketFormatError):
        _read_from(frame[:-3])  # inside the payload
    with pytest.raises(PacketFormatError):
        _read_from(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))  # oversized declaration
