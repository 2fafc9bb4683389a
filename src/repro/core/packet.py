"""Wire format for information-slicing packets (§4.3.3, Fig. 3).

A packet carries, in cleartext, a flow id, and then a fixed number of
*slices*.  Each slice is a coefficient row (``d`` bytes) followed by a coded
block.  The first slice in every packet belongs to the node that receives the
packet; the remaining slices are opaque payload destined for nodes further
down the forwarding graph.

All slices in a packet have the same size, and every packet of a flow carries
the same number of slices, so packet sizes are constant along the path
(§9.4(c)).

Two codecs, one wire format
---------------------------
:meth:`Packet.to_bytes` / :meth:`Packet.from_bytes` are the scalar reference:
one packet, parsed slice by slice.  :func:`pack_packets` /
:func:`unpack_packets` are the batch codec the socket backend ships with.  A
packet is self-delimiting (its header declares ``slice_count × slice_bytes``),
so a batch is just the packets back to back — ``pack_packets(ps)`` is by
definition ``b"".join(p.to_bytes() for p in ps)`` — and because a flow's
packets all have one size, a batch on one connection is an ``(n,
packet_size)`` byte matrix: the parser views the headers as one structured
array, checks every row's shape fields against the first at once and hands
out slices as views into the one buffer.  Rows that change shape mid-buffer
(setup and data packets in one batch) start a new run; nothing is ever cut
on a shape that row's own header did not declare.  Both parsers validate
headers through the same :func:`_check_header`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .coder import CodedBlock
from .errors import PacketFormatError

# flow_id, kind, slice_count, slice_bytes, d, lane, seq
_HEADER = struct.Struct(">QBBHBBI")
# The same layout for numpy: the headers of a run of equal-sized packets are
# one strided structured array over the batch buffer.
_HEADER_DTYPE = np.dtype(
    [
        ("flow_id", ">u8"),
        ("kind", "u1"),
        ("slice_count", "u1"),
        ("slice_bytes", ">u2"),
        ("d", "u1"),
        ("lane", "u1"),
        ("seq", ">u4"),
    ]
)


class PacketKind(IntEnum):
    """Distinguishes route-setup packets from data packets."""

    SETUP = 0
    DATA = 1


def _check_header(kind: int, slice_count: int, slice_bytes: int, d: int) -> PacketKind:
    """Reject header fields no well-formed packet declares; return the kind.

    The one validity check of the scalar parser and (through the first row
    of each run) of every row of the batch parser.
    """
    try:
        kind = PacketKind(kind)
    except ValueError:
        raise PacketFormatError(f"unknown packet kind {kind}") from None
    if slice_count == 0:
        raise PacketFormatError("packet header declares slice_count = 0")
    if d == 0:
        raise PacketFormatError("packet header declares d = 0")
    if slice_bytes < d:
        raise PacketFormatError(
            f"packet header declares slice_bytes = {slice_bytes}, "
            f"shorter than its d = {d} coefficients"
        )
    return kind


@dataclass(slots=True)
class Packet:
    """One information-slicing packet.

    Attributes
    ----------
    flow_id:
        Cleartext 64-bit flow identifier; all parents of a node stamp the same
        flow id on packets destined to it so the node can group them.
    kind:
        Whether this packet belongs to the route-setup or the data phase.
    slices:
        The slices carried, ``slices[0]`` being the slice addressed to the
        receiving node itself.
    d:
        Split factor the slices were coded with (length of coefficient rows).
    lane:
        Position of the *sending* node within its stage.  Receivers use it to
        match incoming packets against the parent indices in their slice-map.
        It carries no identity information (it is an arbitrary 0..d'-1 index
        assigned by the source).
    source_address / destination_address:
        Transport-level addressing used by the overlay when delivering the
        packet.  They are not part of the anonymity-bearing payload.
    """

    flow_id: int
    kind: PacketKind
    slices: list[CodedBlock]
    d: int
    lane: int = 0
    seq: int = 0
    source_address: str = ""
    destination_address: str = ""
    _size: int | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def slice_count(self) -> int:
        return len(self.slices)

    @property
    def own_slice(self) -> CodedBlock:
        """The slice addressed to the receiving node (always slot 0)."""
        if not self.slices:
            raise PacketFormatError("packet carries no slices")
        return self.slices[0]

    def payload_slices(self) -> list[CodedBlock]:
        """The slices to be forwarded downstream (everything after slot 0)."""
        return self.slices[1:]

    def size_bytes(self) -> int:
        """Serialized size, used by the simulator's bandwidth model.

        Computed arithmetically (header plus ``slice_count`` equal-sized
        slices, enforcing the constant packet format like :meth:`to_bytes`)
        and cached on first call, so the hot simulation path never
        serialises just to measure; always equals ``len(self.to_bytes())``.
        Mutating ``slices`` after the first call is not supported.
        """
        if self._size is None:
            if not self.slices:
                raise PacketFormatError("cannot size a packet with no slices")
            first = self.slices[0].size_bytes()
            for block in self.slices[1:]:
                if block.size_bytes() != first:
                    raise PacketFormatError("all slices in a packet must be equal-sized")
            self._size = _HEADER.size + len(self.slices) * first
        return self._size

    # -- serialization -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        if not self.slices:
            raise PacketFormatError("cannot serialize a packet with no slices")
        slice_bytes = self.slices[0].size_bytes()
        for block in self.slices:
            if block.size_bytes() != slice_bytes:
                raise PacketFormatError("all slices in a packet must be equal-sized")
            if block.d != self.d:
                raise PacketFormatError(
                    f"slice coded with d={block.d} in a packet declaring d={self.d}"
                )
        header = _HEADER.pack(
            self.flow_id & 0xFFFFFFFFFFFFFFFF,
            int(self.kind),
            len(self.slices),
            slice_bytes,
            self.d,
            self.lane & 0xFF,
            self.seq & 0xFFFFFFFF,
        )
        return header + b"".join(block.to_bytes() for block in self.slices)

    @classmethod
    def from_bytes(
        cls, data: bytes, source_address: str = "", destination_address: str = ""
    ) -> "Packet":
        if len(data) < _HEADER.size:
            raise PacketFormatError("packet shorter than header")
        flow_id, kind, slice_count, slice_bytes, d, lane, seq = _HEADER.unpack(
            data[: _HEADER.size]
        )
        kind = _check_header(kind, slice_count, slice_bytes, d)
        expected = _HEADER.size + slice_count * slice_bytes
        if len(data) != expected:
            raise PacketFormatError(
                f"packet length {len(data)} does not match header "
                f"({slice_count} slices of {slice_bytes} bytes)"
            )
        slices = []
        offset = _HEADER.size
        for index in range(slice_count):
            chunk = data[offset : offset + slice_bytes]
            slices.append(CodedBlock.from_bytes(chunk, d=d, index=index))
            offset += slice_bytes
        return cls(
            flow_id=flow_id,
            kind=kind,
            slices=slices,
            d=d,
            lane=lane,
            seq=seq,
            source_address=source_address,
            destination_address=destination_address,
        )


def pack_packets(packets: list[Packet]) -> bytes:
    """Serialise a run of packets back to back, in one pass.

    Equal to ``b"".join(p.to_bytes() for p in packets)`` — same bytes, same
    rejections — without building each packet and each slice as its own
    intermediate byte string.
    """
    parts: list[bytes] = []
    for packet in packets:
        slices = packet.slices
        if not slices:
            raise PacketFormatError("cannot serialize a packet with no slices")
        d = packet.d
        slice_bytes = slices[0].size_bytes()
        parts.append(
            _HEADER.pack(
                packet.flow_id & 0xFFFFFFFFFFFFFFFF,
                int(packet.kind),
                len(slices),
                slice_bytes,
                d,
                packet.lane & 0xFF,
                packet.seq & 0xFFFFFFFF,
            )
        )
        for block in slices:
            coefficients, payload = block.coefficients, block.payload
            if coefficients.size + payload.size != slice_bytes:
                raise PacketFormatError("all slices in a packet must be equal-sized")
            if coefficients.size != d:
                raise PacketFormatError(
                    f"slice coded with d={coefficients.size} in a packet declaring d={d}"
                )
            parts.append(coefficients.tobytes())
            parts.append(payload.tobytes())
    return b"".join(parts)


def unpack_packets(
    data: bytes, source_address: str = "", destination_address: str = ""
) -> list[Packet]:
    """Parse a buffer of back-to-back packets; the inverse of :func:`pack_packets`.

    Equal, packet by packet, to :meth:`Packet.from_bytes` on each packet's
    bytes.  The buffer is consumed in runs of equal-shaped packets — one run
    for a whole flow batch — and each run is parsed as a byte matrix: a row
    belongs to the run only if its own header declares the run's kind, slice
    count, slice size and ``d``, so a row is never cut on another row's
    shape.  Slices are read-only views into ``data``, which they keep alive.
    """
    packets: list[Packet] = []
    offset, total = 0, len(data)
    while offset < total:
        if total - offset < _HEADER.size:
            raise PacketFormatError(
                f"{total - offset} trailing bytes are shorter than a packet header"
            )
        _, kind, slice_count, slice_bytes, d, _, _ = _HEADER.unpack_from(data, offset)
        kind = _check_header(kind, slice_count, slice_bytes, d)
        size = _HEADER.size + slice_count * slice_bytes
        rows = (total - offset) // size
        if rows == 0:
            raise PacketFormatError(
                f"packet of {size} bytes ({slice_count} slices of {slice_bytes} "
                f"bytes) truncated to {total - offset}"
            )
        headers = np.ndarray((rows,), _HEADER_DTYPE, data, offset, (size,))
        same_shape = (
            (headers["kind"] == kind)
            & (headers["slice_count"] == slice_count)
            & (headers["slice_bytes"] == slice_bytes)
            & (headers["d"] == d)
        )
        if not same_shape.all():
            rows = int(same_shape.argmin())  # the run ends where the shape changes
            headers = headers[:rows]
        body = np.ndarray(
            (rows, slice_count, slice_bytes),
            np.uint8,
            data,
            offset + _HEADER.size,
            (size, slice_bytes, 1),
        )
        # One column of blocks per slice position: numpy hands out the
        # rows × 2 views of a position in two iterations.
        columns = [
            [
                CodedBlock(row, payload, index)
                for row, payload in zip(body[:, index, :d], body[:, index, d:])
            ]
            for index in range(slice_count)
        ]
        for flow_id, lane, seq, *slices in zip(
            headers["flow_id"].tolist(),
            headers["lane"].tolist(),
            headers["seq"].tolist(),
            *columns,
        ):
            packet = Packet(
                flow_id, kind, slices, d, lane, seq, source_address, destination_address
            )
            packet._size = size
            packets.append(packet)
        offset += rows * size
    return packets


def random_padding_slice(
    d: int, payload_bytes: int, rng: np.random.Generator
) -> CodedBlock:
    """A slice filled with uniformly random bytes (§4.3.6 ``rand`` entries)."""
    coefficients = rng.integers(0, 256, size=d, dtype=np.uint8)
    payload = rng.integers(0, 256, size=payload_bytes, dtype=np.uint8)
    return CodedBlock(coefficients=coefficients, payload=payload, index=-1)
