"""Per-node routing information ``I_x`` and the slice / data maps (§4.3.1).

For every relay ``x`` on the forwarding graph the source assembles an
:class:`NodeInfo` record containing:

* the IP addresses of ``x``'s children (next hops),
* the flow-ids to stamp on packets sent to each child,
* a receiver flag,
* a symmetric secret key,
* a *slice-map* describing how to shuffle received setup slices into the
  packets sent to each child (§4.3.6, Fig. 6), and
* a *data-map* describing how to forward data slices (§4.3.7).

The record serializes to bytes so it can itself be sliced with
:class:`~repro.core.coder.SliceCoder` and delivered confidentially along
disjoint paths.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ProtocolError

#: Sentinel used in slice-maps for "fill this slot with random padding".
RANDOM_SLOT = (0xFF, 0xFF)

#: Size in bytes of the symmetric key carried in the node info.
KEY_SIZE = 16

#: Size in bytes of a flow id (the paper uses 64-bit ids).
FLOW_ID_SIZE = 8


class SliceMapEntry(NamedTuple):
    """Where one outgoing slice slot gets its contents from.

    ``parent_index`` / ``slot_index`` identify an incoming slot (which parent's
    packet and which position in it).  The special value :data:`RANDOM_SLOT`
    (exposed via :meth:`random`) tells the relay to fill the slot with random
    padding bytes instead.  An entry is a plain pair, equal to the tuple of
    its two bytes.
    """

    parent_index: int
    slot_index: int

    @classmethod
    def random(cls) -> "SliceMapEntry":
        """Entry instructing the relay to insert random padding (one shared instance)."""
        return _RANDOM_ENTRY

    @property
    def is_random(self) -> bool:
        return self == RANDOM_SLOT


_RANDOM_ENTRY = SliceMapEntry(*RANDOM_SLOT)


@dataclass
class SliceMap:
    """Per-child shuffle instructions for setup slices (§4.3.6).

    ``entries[c][s]`` says what to place in slot ``s`` of the packet sent to
    child ``c``.  Slot 0 is, by construction, always the child's own slice.
    """

    entries: list[list[SliceMapEntry]] = field(default_factory=list)

    @property
    def num_children(self) -> int:
        return len(self.entries)

    @property
    def slots_per_packet(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def for_child(self, child_index: int) -> list[SliceMapEntry]:
        try:
            return self.entries[child_index]
        except IndexError as exc:
            raise ProtocolError(
                f"slice-map has no child index {child_index} "
                f"(has {self.num_children})"
            ) from exc

    def pack(self) -> bytes:
        """Two header bytes (children, slots), then each entry's two bytes."""
        header = struct.pack(">BB", self.num_children, self.slots_per_packet)
        return header + bytes(byte for child in self.entries for entry in child for byte in entry)

    @classmethod
    def unpack(cls, data: bytes) -> tuple["SliceMap", int]:
        """Parse a slice-map; returns ``(map, bytes_consumed)``."""
        if len(data) < 2:
            raise ProtocolError("slice-map header truncated")
        num_children, slots = data[0], data[1]
        width = 2 * slots
        needed = 2 + num_children * width
        if len(data) < needed:
            raise ProtocolError("slice-map body truncated")
        # Each child's entries are ``width`` bytes of the body: parent indices
        # at the even offsets, slot indices at the odd ones.
        rows = [data[2 + c * width : 2 + (c + 1) * width] for c in range(num_children)]
        entries = [list(map(SliceMapEntry, row[::2], row[1::2])) for row in rows]
        return cls(entries=entries), needed


@dataclass
class DataMap:
    """Per-child forwarding instructions for data slices (§4.3.7).

    ``slice_for_child[c]`` is the *parent index* (0..d'-1) whose data slice
    this relay forwards to child ``c``.  The source constructs the maps so
    every node ends up with all ``d'`` distinct data slices, one from each
    parent, with no duplicates and no wasted bandwidth.
    """

    slice_for_child: list[int] = field(default_factory=list)

    @property
    def num_children(self) -> int:
        return len(self.slice_for_child)

    def for_child(self, child_index: int) -> int:
        try:
            return self.slice_for_child[child_index]
        except IndexError as exc:
            raise ProtocolError(
                f"data-map has no child index {child_index} (has {self.num_children})"
            ) from exc

    def pack(self) -> bytes:
        return struct.pack(">B", self.num_children) + bytes(self.slice_for_child)

    @classmethod
    def unpack(cls, data: bytes) -> tuple["DataMap", int]:
        if len(data) < 1:
            raise ProtocolError("data-map header truncated")
        count = data[0]
        if len(data) < 1 + count:
            raise ProtocolError("data-map body truncated")
        return cls(slice_for_child=list(data[1 : 1 + count])), 1 + count


@dataclass
class NodeInfo:
    """The routing information ``I_x`` delivered confidentially to node ``x``.

    ``lane`` is the node's position within its stage; relays stamp it on the
    packets they emit so that the next hop can match incoming packets against
    the parent indices used in its own slice-map and data-map.  ``num_parents``
    tells the relay how many distinct parents feed it (``d'``), which it uses
    to decide when it has heard from everyone upstream.
    """

    next_hop_addresses: list[str]
    next_hop_flow_ids: list[int]
    is_receiver: bool
    secret_key: bytes
    slice_map: SliceMap
    data_map: DataMap
    lane: int = 0
    num_parents: int = 0

    def __post_init__(self) -> None:
        if len(self.next_hop_addresses) != len(self.next_hop_flow_ids):
            raise ProtocolError(
                "next-hop address and flow-id lists must have equal length"
            )
        if len(self.secret_key) != KEY_SIZE:
            raise ProtocolError(
                f"secret key must be {KEY_SIZE} bytes, got {len(self.secret_key)}"
            )

    @property
    def num_children(self) -> int:
        return len(self.next_hop_addresses)

    # -- serialization -----------------------------------------------------------

    def pack(self) -> bytes:
        """Serialize to bytes (the payload that the source slices and codes)."""
        parts = [struct.pack(">B", self.num_children)]
        for address in self.next_hop_addresses:
            encoded = address.encode("utf-8")
            if len(encoded) > 255:
                raise ProtocolError(f"address too long: {address!r}")
            parts.append(struct.pack(">B", len(encoded)) + encoded)
        for flow_id in self.next_hop_flow_ids:
            parts.append(struct.pack(">Q", flow_id & 0xFFFFFFFFFFFFFFFF))
        parts.append(struct.pack(">B", 1 if self.is_receiver else 0))
        parts.append(struct.pack(">BB", self.lane, self.num_parents))
        parts.append(self.secret_key)
        parts.append(self.slice_map.pack())
        parts.append(self.data_map.pack())
        return b"".join(parts)

    @classmethod
    def unpack(cls, data: bytes) -> "NodeInfo":
        """Parse bytes produced by :meth:`pack`."""
        try:
            offset = 0
            num_children = data[offset]
            offset += 1
            addresses = []
            for _ in range(num_children):
                length = data[offset]
                offset += 1
                addresses.append(data[offset : offset + length].decode("utf-8"))
                offset += length
            flow_ids = list(struct.unpack_from(f">{num_children}Q", data, offset))
            offset += num_children * FLOW_ID_SIZE
            is_receiver = bool(data[offset])
            offset += 1
            lane = data[offset]
            num_parents = data[offset + 1]
            offset += 2
            secret_key = bytes(data[offset : offset + KEY_SIZE])
            offset += KEY_SIZE
            slice_map, consumed = SliceMap.unpack(data[offset:])
            offset += consumed
            data_map, consumed = DataMap.unpack(data[offset:])
            offset += consumed
        except (IndexError, struct.error, UnicodeDecodeError) as exc:
            raise ProtocolError(f"malformed NodeInfo payload: {exc}") from exc
        return cls(
            next_hop_addresses=addresses,
            next_hop_flow_ids=flow_ids,
            is_receiver=is_receiver,
            secret_key=secret_key,
            slice_map=slice_map,
            data_map=data_map,
            lane=lane,
            num_parents=num_parents,
        )
