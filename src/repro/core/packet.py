"""Wire format for information-slicing packets (§4.3.3, Fig. 3).

A packet carries, in cleartext, a flow id, and then a fixed number of
*slices*.  Each slice is a coefficient row (``d`` bytes) followed by a coded
block.  The first slice in every packet belongs to the node that receives the
packet; the remaining slices are opaque payload destined for nodes further
down the forwarding graph.

All slices in a packet have the same size, and every packet of a flow carries
the same number of slices, so packet sizes are constant along the path
(§9.4(c)).  Slots with nothing to carry hold random padding
(:func:`random_padding_slices`): whoever builds a forward draws all of its
padding in one ``uint32`` call, byte for byte the stream of one two-call
``uint8`` draw per slice, so the generator ends where it would have.

Two codecs, one wire format
---------------------------
:meth:`Packet.to_bytes` / :meth:`Packet.from_bytes` are the scalar reference:
one packet, parsed slice by slice.  :func:`pack_packets` /
:func:`unpack_packets` are the batch codec the socket backend ships with.  A
packet is self-delimiting (its header declares ``slice_count × slice_bytes``),
so a batch is just the packets back to back — ``pack_packets(ps)`` is by
definition ``b"".join(p.to_bytes() for p in ps)``.  A data packet carries
one slice and a flow's packets have one size, so the data plane holds the
packets one parent sends one child as one :class:`PacketBatch` of columns,
serialised as one ``(n, packet_size)`` fill; setup packets stay
:class:`Packet`.  The parser views the headers of a run of equal-sized
packets as one byte matrix, settles with one bytes comparison each that every
row has the first row's shape and whether the flow id or lane ever changes,
and hands out one batch per (flow id, lane) run of data rows, its columns
read-only views into the buffer.  Rows that change shape mid-buffer start a
new run; nothing is ever cut on a shape that row's own header did not
declare.  Both parsers validate headers through :func:`_check_header`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import ClassVar, Iterable

import numpy as np

from .coder import CodedBlock
from .errors import PacketFormatError
from .gf import uint8_blocks

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
# The header bytes of a run's shape (kind to d) and of its (flow id, lane) key.
_SHAPE_BYTES = slice(_HEADER_DTYPE.fields["kind"][1], _HEADER_DTYPE.fields["lane"][1])
_KEY_BYTES = slice(0, _HEADER_DTYPE.fields["seq"][1])


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
    _slice_bytes: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The constant packet format, checked once when the packet is built.
        sizes = {block.size_bytes() for block in self.slices}
        if len(sizes) > 1:
            raise PacketFormatError("all slices in a packet must be equal-sized")
        self._slice_bytes = sizes.pop() if sizes else 0

    @property
    def own_slice(self) -> CodedBlock:
        """The slice addressed to the receiving node (always slot 0)."""
        if not self.slices:
            raise PacketFormatError("packet carries no slices")
        return self.slices[0]

    def size_bytes(self) -> int:
        """Serialized size, used by the simulator's bandwidth model.

        Computed arithmetically (header plus ``slice_count`` slices of the
        size checked equal when the packet was built), so sizing never
        serialises or walks the slices; equals ``len(self.to_bytes())``,
        which checks the slices again.
        """
        if not self.slices:
            raise PacketFormatError("cannot size a packet with no slices")
        return _HEADER.size + len(self.slices) * self._slice_bytes

    # -- serialization -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        return b"".join(_packet_parts(self))

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


@dataclass(frozen=True, slots=True)
class PacketBatch:
    """One flow's data packets on one connection, as columns.

    Row ``i`` is the data packet of ``seqs[i]`` whose one slice is
    ``coefficients[i]`` then ``payloads[i]``; ``len`` and :meth:`size_bytes`
    come from the shape.  The columns may be views of a source's coding
    stacks, of another batch or of a received frame, shared by every batch
    cut from them, so nothing writes into them.  A batch parsed off the wire,
    and every batch cut or forwarded from it, keeps its rows' wire bytes as
    ``wire``, an ``(n, packet_size)`` view the columns view: :meth:`to_bytes`
    re-sends them.
    """

    flow_id: int
    d: int
    lane: int
    seqs: list[int]
    coefficients: np.ndarray
    payloads: np.ndarray
    source_address: str = ""
    destination_address: str = ""
    wire: np.ndarray | None = None

    kind: ClassVar[PacketKind] = PacketKind.DATA

    @classmethod
    def of(cls, packet: Packet) -> "PacketBatch":
        """A one-row batch of a scalar data packet's own slice."""
        block = packet.own_slice
        return cls(packet.flow_id, block.d, packet.lane, [packet.seq], block.coefficients[None],
                   block.payload[None], packet.source_address, packet.destination_address)

    def __len__(self) -> int:
        return len(self.seqs)

    def __getitem__(self, rows: slice) -> "PacketBatch":
        """Consecutive rows, sharing this batch's columns."""
        wire = self.wire
        return PacketBatch(self.flow_id, self.d, self.lane, self.seqs[rows],
                           self.coefficients[rows], self.payloads[rows], self.source_address,
                           self.destination_address, None if wire is None else wire[rows])

    @property
    def packet_size(self) -> int:
        """Wire size of one row: header plus one slice."""
        return _HEADER.size + self.d + self.payloads.shape[1]

    def size_bytes(self) -> int:
        """Wire size of the whole batch, ``len(self.to_bytes())``."""
        return len(self.seqs) * self.packet_size

    def forward(self, rows: list[int], flow_id: int, lane: int, source_address: str,
                destination_address: str) -> "PacketBatch":
        """Rows ``rows`` (ascending), re-addressed; shares the columns when all go on."""
        seqs, coefficients, payloads, wire = self.seqs, self.coefficients, self.payloads, self.wire
        if len(rows) < len(seqs):
            if wire is None:
                coefficients, payloads = coefficients[rows], payloads[rows]
                coefficients.flags.writeable = payloads.flags.writeable = False
            else:  # one copy of the rows, the columns views of it
                wire = wire[rows]
                wire.flags.writeable = False
                coefficients = wire[:, _HEADER.size : _HEADER.size + self.d]
                payloads = wire[:, _HEADER.size + self.d :]
            seqs = [seqs[row] for row in rows]
        return PacketBatch(flow_id, self.d, lane, seqs, coefficients, payloads, source_address,
                           destination_address, wire)

    def to_bytes(self) -> bytes:
        """The rows' wire bytes back to back, filled as one ``(n, packet_size)`` matrix,
        or copied from ``wire`` with header bytes 0-13 (flow id, shape, lane) rewritten."""
        rows, d, size = len(self.seqs), self.d, self.packet_size
        if self.wire is not None:
            out = self.wire.copy()
            out[:, : _KEY_BYTES.stop] = np.frombuffer(_HEADER.pack(
                self.flow_id & 0xFFFFFFFFFFFFFFFF, PacketKind.DATA, 1, size - _HEADER.size, d,
                self.lane & 0xFF, 0,
            ), np.uint8, _KEY_BYTES.stop)
            return out.tobytes()
        if self.coefficients.shape[1] != d:
            raise PacketFormatError(
                f"slice coded with d={self.coefficients.shape[1]} in a packet declaring d={d}"
            )
        out = np.empty((rows, size), np.uint8)
        headers = np.ndarray((rows,), _HEADER_DTYPE, out, 0, (size,))
        headers["flow_id"] = self.flow_id & 0xFFFFFFFFFFFFFFFF
        headers["kind"], headers["slice_count"] = PacketKind.DATA, 1
        headers["slice_bytes"], headers["d"] = size - _HEADER.size, d
        headers["lane"] = self.lane & 0xFF
        headers["seq"] = np.array(self.seqs, np.uint64) & 0xFFFFFFFF
        out[:, _HEADER.size : _HEADER.size + d] = self.coefficients
        out[:, _HEADER.size + d :] = self.payloads
        return out.tobytes()


#: What a transmission carries: setup packets and data batches.
AnyPacket = Packet | PacketBatch


def packet_count(item: AnyPacket) -> int:
    """Packets an item stands for: a batch's rows, or one."""
    return len(item.seqs) if type(item) is PacketBatch else 1


def wire_sizes(items: list[AnyPacket]) -> list[int]:
    """One wire size per packet, in order."""
    sizes: list[int] = []
    for item in items:
        batch = type(item) is PacketBatch
        sizes += [item.packet_size] * len(item) if batch else [item.size_bytes()]
    return sizes


def split_items(items: list, cuts: Iterable[int]) -> list[list]:
    """Cut a sequence of packets before each of the ascending packet positions ``cuts``.

    A batch that straddles a cut is split between two of its rows; any other
    item (a :class:`Packet`, an opaque cell) counts as one packet.
    """
    pieces: list[list] = [[]]
    position, cuts = 0, iter(cuts)
    cut = next(cuts, None)
    for item in items:
        count, start = packet_count(item), 0
        while cut is not None and cut < position + count:
            if cut > position + start:
                pieces[-1].append(item[start : cut - position])
            pieces.append([])
            start, cut = cut - position, next(cuts, None)
        if start < count:
            pieces[-1].append(item if start == 0 else item[start:])
        position += count
    return pieces


def _packet_parts(packet: Packet) -> list[bytes]:
    """A scalar packet's header and slices, validated: its wire bytes in pieces."""
    slices, d = packet.slices, packet.d
    if not slices:
        raise PacketFormatError("cannot serialize a packet with no slices")
    slice_bytes = slices[0].size_bytes()
    parts = [b""]
    for block in slices:
        if block.size_bytes() != slice_bytes:
            raise PacketFormatError("all slices in a packet must be equal-sized")
        if block.d != d:
            raise PacketFormatError(f"slice coded with d={block.d} in a packet declaring d={d}")
        parts += (block.coefficients.tobytes(), block.payload.tobytes())
    parts[0] = _HEADER.pack(
        packet.flow_id & 0xFFFFFFFFFFFFFFFF, int(packet.kind), len(slices), slice_bytes, d,
        packet.lane & 0xFF, packet.seq & 0xFFFFFFFF,
    )
    return parts


def pack_packets(packets: list[AnyPacket]) -> bytes:
    """Serialise a run of packets back to back, in one pass.

    Equal to ``b"".join(p.to_bytes() for p in packets)`` — same bytes, same
    rejections — with no intermediate byte string per packet; a
    :class:`PacketBatch` is one matrix fill.
    """
    parts: list[bytes] = []
    for packet in packets:
        if type(packet) is PacketBatch:
            parts.append(packet.to_bytes())
        else:
            parts += _packet_parts(packet)
    return b"".join(parts)


def unpack_packets(
    data: bytes, source_address: str = "", destination_address: str = ""
) -> list[AnyPacket]:
    """Parse a buffer of back-to-back packets; the inverse of :func:`pack_packets`.

    Equal, packet by packet, to :meth:`Packet.from_bytes` on each packet's
    bytes.  The buffer is consumed in runs of equal-shaped packets — one run
    for a whole flow batch — and each run is parsed as a byte matrix: a row
    belongs to the run only if its own header declares the run's kind, slice
    count, slice size and ``d``, so a row is never cut on another row's
    shape.  A run of one-slice data packets comes back as one
    :class:`PacketBatch` per (flow id, lane) run, whose columns are
    read-only views into ``data``; any other row is a :class:`Packet` whose
    slices are such views.
    """
    items: list[AnyPacket] = []
    offset, total = 0, len(data)
    while offset < total:
        if total - offset < _HEADER.size:
            raise PacketFormatError(
                f"{total - offset} trailing bytes are shorter than a packet header"
            )
        flow_id, kind, slice_count, slice_bytes, d, lane, _ = _HEADER.unpack_from(data, offset)
        kind = _check_header(kind, slice_count, slice_bytes, d)
        size = _HEADER.size + slice_count * slice_bytes
        rows = (total - offset) // size
        if rows == 0:
            raise PacketFormatError(
                f"packet of {size} bytes ({slice_count} slices of {slice_bytes} "
                f"bytes) truncated to {total - offset}"
            )
        # The headers as a (rows, header) byte matrix: the run is one shape if
        # the shape bytes match in every row, and uncut if the key bytes do.
        # Rows are compared one by one only to find the ends.
        wire = np.ndarray((rows, size), np.uint8, data, offset)
        heads = wire[:, : _HEADER.size]
        first = heads[0].tobytes()
        uncut = heads[:, _KEY_BYTES].tobytes() == first[_KEY_BYTES] * rows
        if not uncut and heads[:, _SHAPE_BYTES].tobytes() != first[_SHAPE_BYTES] * rows:
            # The run ends where the shape changes.
            rows = int((heads[:, _SHAPE_BYTES] == heads[0, _SHAPE_BYTES]).all(axis=1).argmin())
        headers = np.ndarray((rows,), _HEADER_DTYPE, data, offset, (size,))
        body = np.ndarray(
            (rows, slice_count, slice_bytes),
            np.uint8,
            data,
            offset + _HEADER.size,
            (size, slice_bytes, 1),
        )
        seqs = headers["seq"].tolist()
        if kind == PacketKind.DATA and slice_count == 1:
            coefficients, payloads = body[:, 0, :d], body[:, 0, d:]
            if uncut:
                items.append(PacketBatch(flow_id, d, lane, seqs, coefficients, payloads,
                                         source_address, destination_address, wire))
            else:  # cut where the flow id or the lane changes
                keys = heads[:rows, _KEY_BYTES]
                bounds = [0, *(np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1).tolist(),
                          rows]
                flow_ids, lanes = headers["flow_id"], headers["lane"]
                items += (
                    PacketBatch(int(flow_ids[a]), d, int(lanes[a]), seqs[a:b], coefficients[a:b],
                                payloads[a:b], source_address, destination_address, wire[a:b])
                    for a, b in zip(bounds, bounds[1:])
                )
        else:
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
                headers["flow_id"].tolist(), headers["lane"].tolist(), seqs, *columns
            ):
                items.append(Packet(
                    flow_id, kind, slices, d, lane, seq, source_address, destination_address
                ))
        offset += rows * size
    return items


def random_padding_slices(
    count: int, d: int, payload_bytes: int, rng: np.random.Generator
) -> list[CodedBlock]:
    """``count`` slices of uniformly random bytes (§4.3.6 ``rand`` entries), in one draw.

    Stream-identical to ``count`` successive draws of ``d`` coefficient
    bytes then ``payload_bytes`` payload bytes: one
    :func:`~repro.core.gf.uint8_blocks` round per slice.
    """
    coefficients, payloads = uint8_blocks(rng, (d, payload_bytes), count)
    return [CodedBlock(head, body, -1) for head, body in zip(coefficients, payloads)]
