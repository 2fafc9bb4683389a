"""Serialization tests for per-node routing information and the maps."""

import pytest

from repro.core.errors import ProtocolError
from repro.core.node_info import (
    KEY_SIZE,
    RANDOM_SLOT,
    DataMap,
    NodeInfo,
    SliceMap,
    SliceMapEntry,
)


def sample_slice_map() -> SliceMap:
    return SliceMap(
        entries=[
            [SliceMapEntry(0, 1), SliceMapEntry(1, 2), SliceMapEntry.random()],
            [SliceMapEntry(1, 1), SliceMapEntry.random(), SliceMapEntry(0, 3)],
        ]
    )


def sample_node_info(**overrides) -> NodeInfo:
    kwargs = dict(
        next_hop_addresses=["10.0.0.1", "relay.example.org"],
        next_hop_flow_ids=[0x1122334455667788, 42],
        is_receiver=True,
        secret_key=bytes(range(KEY_SIZE)),
        slice_map=sample_slice_map(),
        data_map=DataMap(slice_for_child=[1, 0]),
        lane=1,
        num_parents=2,
    )
    kwargs.update(overrides)
    return NodeInfo(**kwargs)


def test_slice_map_entry_random_flag():
    assert SliceMapEntry.random().is_random
    assert not SliceMapEntry(0, 0).is_random


def test_slice_map_pack_unpack_roundtrip():
    original = sample_slice_map()
    parsed, consumed = SliceMap.unpack(original.pack())
    assert consumed == len(original.pack())
    assert parsed.entries == original.entries


def test_slice_map_entries_are_plain_pairs():
    parsed, _ = SliceMap.unpack(sample_slice_map().pack())
    entries = [entry for child in parsed.entries for entry in child]
    assert all(isinstance(entry, SliceMapEntry) for entry in entries)
    assert [entry.is_random for entry in entries] == [False, False, True, False, True, False]
    assert parsed.entries[0][1] == (1, 2) and parsed.entries[0][1].slot_index == 2
    assert SliceMapEntry.random() == RANDOM_SLOT


def test_slice_map_without_children_or_slots_round_trips():
    for entries in ([], [[], []]):
        original = SliceMap(entries=entries)
        packed = original.pack()
        assert len(packed) == 2
        parsed, consumed = SliceMap.unpack(packed + b"trailing")
        assert consumed == 2 and parsed.entries == entries
        assert parsed.num_children == len(entries) and parsed.slots_per_packet == 0


def test_slice_map_truncated_raises():
    packed = sample_slice_map().pack()
    with pytest.raises(ProtocolError):
        SliceMap.unpack(packed[:3])


def test_slice_map_for_child_out_of_range():
    with pytest.raises(ProtocolError):
        sample_slice_map().for_child(5)


def test_data_map_roundtrip_and_lookup():
    data_map = DataMap(slice_for_child=[2, 0, 1])
    parsed, consumed = DataMap.unpack(data_map.pack())
    assert parsed.slice_for_child == [2, 0, 1]
    assert consumed == 4
    assert parsed.for_child(1) == 0
    with pytest.raises(ProtocolError):
        parsed.for_child(3)


def test_node_info_roundtrip():
    info = sample_node_info()
    parsed = NodeInfo.unpack(info.pack())
    assert parsed.next_hop_addresses == info.next_hop_addresses
    assert parsed.next_hop_flow_ids == info.next_hop_flow_ids
    assert parsed.is_receiver is True
    assert parsed.secret_key == info.secret_key
    assert parsed.slice_map.entries == info.slice_map.entries
    assert parsed.data_map.slice_for_child == info.data_map.slice_for_child
    assert parsed.lane == 1
    assert parsed.num_parents == 2


def test_node_info_roundtrip_no_children():
    info = sample_node_info(
        next_hop_addresses=[],
        next_hop_flow_ids=[],
        is_receiver=False,
        slice_map=SliceMap(entries=[]),
        data_map=DataMap(slice_for_child=[]),
    )
    parsed = NodeInfo.unpack(info.pack())
    assert parsed.next_hop_addresses == []
    assert parsed.is_receiver is False


def test_node_info_roundtrip_with_trailing_padding():
    info = sample_node_info()
    parsed = NodeInfo.unpack(info.pack() + b"\x00" * 64)
    assert parsed.next_hop_addresses == info.next_hop_addresses


def test_node_info_rejects_mismatched_lists():
    with pytest.raises(ProtocolError):
        sample_node_info(next_hop_flow_ids=[1])


def test_node_info_rejects_bad_key_length():
    with pytest.raises(ProtocolError):
        sample_node_info(secret_key=b"short")


def test_node_info_unpack_garbage_raises():
    with pytest.raises(ProtocolError):
        NodeInfo.unpack(b"\xff" * 3)
