"""Wire-format tests for packets."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.dataplane import random_padding_slice
from repro.core.coder import SliceCoder
from repro.core.errors import PacketFormatError
from repro.core.packet import Packet, PacketBatch, PacketKind, random_padding_slices


def build_packet(num_slices: int = 3, d: int = 2, seq: int = 7) -> Packet:
    coder = SliceCoder(d=d, d_prime=num_slices)
    blocks = coder.encode(b"wire format payload", np.random.default_rng(0))
    return Packet(
        flow_id=0xDEADBEEFCAFEBABE,
        kind=PacketKind.SETUP,
        slices=blocks,
        d=d,
        lane=1,
        seq=seq,
        source_address="a",
        destination_address="b",
    )


def test_packet_roundtrip_preserves_fields():
    packet = build_packet()
    parsed = Packet.from_bytes(packet.to_bytes(), "a", "b")
    assert parsed.flow_id == packet.flow_id
    assert parsed.kind == PacketKind.SETUP
    assert parsed.d == packet.d
    assert parsed.lane == packet.lane
    assert parsed.seq == packet.seq
    assert len(parsed.slices) == len(packet.slices)
    for original, decoded in zip(packet.slices, parsed.slices):
        assert np.array_equal(original.coefficients, decoded.coefficients)
        assert np.array_equal(original.payload, decoded.payload)


def test_packet_roundtrip_is_decodable():
    packet = build_packet(num_slices=3, d=2)
    parsed = Packet.from_bytes(packet.to_bytes())
    coder = SliceCoder(d=2, d_prime=3)
    assert coder.decode(parsed.slices) == b"wire format payload"


def test_own_slice_is_slot_zero():
    packet = build_packet()
    assert packet.own_slice is packet.slices[0]


def test_empty_packet_rejected():
    packet = build_packet()
    packet.slices = []
    with pytest.raises(PacketFormatError):
        packet.to_bytes()
    with pytest.raises(PacketFormatError):
        _ = packet.own_slice


def test_unequal_slice_sizes_rejected():
    packet = build_packet()
    packet.slices[1] = random_padding_slices(1, 2, 5, np.random.default_rng(1))[0]
    with pytest.raises(PacketFormatError):
        packet.to_bytes()


def test_truncated_bytes_rejected():
    data = build_packet().to_bytes()
    with pytest.raises(PacketFormatError):
        Packet.from_bytes(data[:-3])
    with pytest.raises(PacketFormatError):
        Packet.from_bytes(data[:5])


def test_random_padding_slice_shape():
    rng = np.random.default_rng(2)
    blocks = random_padding_slices(3, 4, 100, rng)
    assert len(blocks) == 3
    for block in blocks:
        assert block.coefficients.shape == (4,)
        assert block.payload.shape == (100,)


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 8),
    d=st.integers(1, 8),
    payload_bytes=st.integers(0, 1600),
)
def test_random_padding_slices_equal_per_slice_draws(seed, count, d, payload_bytes):
    """One draw for ``count`` slices is ``count`` two-call draws, byte for
    byte, and leaves the generator where they leave it."""
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    blocks = random_padding_slices(count, d, payload_bytes, batched)
    expected = [random_padding_slice(d, payload_bytes, scalar) for _ in range(count)]
    assert [block.to_bytes() for block in blocks] == [block.to_bytes() for block in expected]
    assert all(block.d == d and block.index == -1 for block in blocks)
    assert batched.bytes(16) == scalar.bytes(16)


def test_packet_size_constant_across_slices():
    packet = build_packet(num_slices=4, d=2)
    sizes = {block.size_bytes() for block in packet.slices}
    assert len(sizes) == 1
    assert packet.size_bytes() == len(packet.to_bytes())


@pytest.mark.parametrize("field", [field.name for field in dataclasses.fields(PacketBatch)])
def test_a_batch_field_cannot_be_assigned(field):
    batch = PacketBatch(1, 2, 0, [4, 5], np.zeros((2, 2), np.uint8), np.zeros((2, 8), np.uint8),
                        "a", "b")
    before = getattr(batch, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(batch, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(batch, field)
    assert getattr(batch, field) is before
    rows = batch[1:]
    assert type(rows) is PacketBatch and rows.seqs == [5] and rows.destination_address == "b"
    assert dataclasses.replace(batch, lane=1).lane == 1
