"""Per-flow batched data-slice store and decoder (the relay's data plane).

:class:`FlowDecoder` keeps per-batch, not per-slice, bookkeeping over
Python-int masks whose bit ``i`` is seq ``base + i``: one mask per lane of
the seqs holding a slice from it, and the *runs* in arrival order, each a
received :class:`~repro.core.packet.PacketBatch` held by reference (its
columns are read-only), the mask of the rows it stores and the shift from a
row to its seq.  A seq's slices, in arrival order, are the rows of the runs
holding it.  A batch of one ascending seq range, none of it stored yet — a
parent delivering a burst on one lane — is stored with one AND, one OR and
one append; any other batch is cut into runs of its accepted rows.  A relay
that only forwards owns no slice bytes.  A run is released once every seq it
fed is retired.  The relay's forward and flush markers are masks
here too, one per child and one for flushes, so every mask moves with the
base together: retiring shifts them and trims the runs that straddle the
new base, and a slice below the base lowers it.  Every mask is as wide as
the span from the base to its highest seq; :meth:`FlowDecoder.within` is
how a relay keeps rows off the wire inside a window of that span.
``RowFlowDecoder`` in ``tests/oracles/dataplane.py`` is the per-row
reference store.

A decode or a regeneration gathers the first slices of each seq, run by
run, into ``(seqs, slots, d)`` coefficient and ``(seqs, slots, block_len)``
payload stacks, so a burst of deliverable messages decodes through the
batched GF(2^8) kernels
(:meth:`GF256.invert_matrices <repro.core.gf.GF256.invert_matrices>` /
:meth:`GF256.batched_matmul <repro.core.gf.GF256.batched_matmul>`) in a
constant number of numpy passes.

One *plane* exists per distinct payload length; the protocol's
constant packet format (§9.4c) means a steady-state flow has exactly one.
Slices whose length clashes with their sequence's plane — impossible from a
conforming sender — are kept in a per-seq side list and decoded through the
scalar fallback.

Decoding is deterministic (matrix inverses over GF(2^8) are unique), so the
batched path is *bit-identical* to the scalar reference: the fast path takes
the first ``d`` slices in arrival order — exactly what the greedy
:meth:`SliceCoder.select_independent
<repro.core.coder.SliceCoder.select_independent>` picks when they are
independent — and anything irregular (dependent rows, churn padding that
fails the integrity frame) falls back to :func:`robust_decode` on the very
same blocks.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .coder import CodedBlock, SliceCoder, _unpad_message
from .errors import CodingError, InsufficientSlicesError
from .gf import GF, GF256
from .integrity import robust_decode, unwrap, verify
from .packet import PacketBatch

def decode_setup_payload(
    coder: SliceCoder,
    blocks: list[CodedBlock],
    field: GF256 | None = None,
) -> bytes:
    """Robust-decode one slice set through the batched Gauss–Jordan kernel.

    This is the route-setup counterpart of :meth:`FlowDecoder.decode_many`:
    a relay decoding its own routing information (§4.3.5) stacks the first
    ``d`` received slices — arrival order — into a ``(1, d, d)``
    coefficient stack and a ``(1, d, block_len)`` payload stack and decodes
    through :meth:`GF256.try_invert_matrices
    <repro.core.gf.GF256.try_invert_matrices>` /
    :meth:`GF256.batched_matmul <repro.core.gf.GF256.batched_matmul>`,
    instead of paying :func:`~repro.core.integrity.robust_decode`'s greedy
    per-block rank eliminations.

    Bit-identical to ``robust_decode(coder, blocks)``: when the first ``d``
    blocks are independent they are exactly what the greedy scalar selection
    picks (matrix inverses over GF(2^8) are unique), and anything irregular
    — dependent rows, churn padding that fails the integrity frame, ragged
    payload lengths — falls back to :func:`robust_decode` on the very same
    blocks.  Asserted in ``tests/test_setup_decode.py``, block by block and
    through a full route setup against the per-packet reference plane.
    """
    field = GF if field is None else field
    d = coder.d
    if len(blocks) < d:
        raise InsufficientSlicesError(d, len(blocks))
    head = blocks[:d]
    block_len = head[0].payload.shape[0]
    if all(
        block.coefficients.shape[0] == d and block.payload.shape[0] == block_len
        for block in head
    ):
        coeffs = np.stack([block.coefficients for block in head])[None, :, :]
        inverses, invertible = field.try_invert_matrices(coeffs)
        if invertible[0]:
            payloads = np.stack([block.payload for block in head])[None, :, :]
            pieces = field.batched_matmul(inverses, payloads)[0]
            try:
                candidate = _unpad_message(pieces)
            except CodingError:
                candidate = None
            if candidate is not None and verify(candidate):
                return unwrap(candidate)
    return robust_decode(coder, blocks)


def mask_offsets(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    if not mask:
        return []
    start = (mask & -mask).bit_length() - 1
    mask >>= start
    if not mask & (mask + 1):  # one block of ones
        return list(range(start, start + mask.bit_length()))
    offsets = []
    while mask:
        low = mask & -mask
        offsets.append(start + low.bit_length() - 1)
        mask ^= low
    return offsets


def shift_mask(mask: int, by: int) -> int:
    """``mask`` re-expressed over a base ``by`` higher (lower if negative)."""
    return mask >> by if by >= 0 else mask << -by


def _is_run(seqs: list[int]) -> bool:
    """Whether ``seqs`` is one ascending range."""
    return bool(seqs) and seqs == list(range(seqs[0], seqs[0] + len(seqs)))


class _Plane:
    """Slice references for all sequences sharing one payload length.

    ``lanes`` maps a lane to the mask of seqs holding a slice from it and
    ``held`` is their union.  ``runs`` are ``[rows, shift, lane, batch]`` in
    arrival order: bit ``r`` of ``rows`` is row ``r`` of ``batch``, the
    slice of seq ``shift + r``, so a run's mask never moves with the base.
    """

    __slots__ = ("lanes", "held", "runs")

    def __init__(self) -> None:
        self.lanes: dict[int, int] = {}
        self.held = 0
        self.runs: list[list] = []

    def shift(self, by: int) -> None:
        """Re-express the seq masks over a base ``by`` higher (lower if negative)."""
        lanes = {lane: shift_mask(mask, by) for lane, mask in self.lanes.items()}
        self.lanes = {lane: mask for lane, mask in lanes.items() if mask}
        self.held = shift_mask(self.held, by)

    def at_least(self, mask: int, need: int) -> int:
        """The seqs of ``mask`` holding at least ``need`` slices here."""
        reached = [mask] + [0] * need
        for lane_mask in self.lanes.values():
            lane_mask &= mask
            for count in range(need, 0, -1) if lane_mask else ():
                reached[count] |= reached[count - 1] & lane_mask
        return reached[need]

    def gather(self, base: int, mask: int, coeffs: np.ndarray, payloads: np.ndarray) -> None:
        """Copy the slices of the ``i``-th seq of ``mask`` into ``coeffs[i]`` / ``payloads[i]``.

        At most ``coeffs.shape[1]`` slices per seq, in arrival order: run by
        run, the seqs that have filled ``slot`` slots take their next one
        from that run, one slice copy per contiguous block of them.  Slots
        past a seq's count are left as they are.
        """
        limit, low_end, high_end = coeffs.shape[1], (mask & -mask).bit_length(), mask.bit_length()
        filled = [mask] + [0] * limit  # filled[k]: seqs with at least k slots taken
        for rows_mask, shift, _lane, batch in self.runs:
            at = shift - base
            if at >= high_end or at + rows_mask.bit_length() < low_end:
                continue
            hit = (rows_mask << at if at >= 0 else rows_mask >> -at) & mask & ~filled[limit]
            for slot in range(limit) if hit else ():
                take = hit & filled[slot] & ~filled[slot + 1]
                while take:
                    low = take & -take
                    block = ((take + low) & ~take) - low
                    take ^= block
                    first, end = low.bit_length() - 1, block.bit_length()
                    out = (mask & (low - 1)).bit_count()
                    rows = slice(base + first - shift, base + end - shift)
                    coeffs[out : out + end - first, slot] = batch.coefficients[rows]
                    payloads[out : out + end - first, slot] = batch.payloads[rows]
            for slot in range(limit, 0, -1) if hit else ():
                filled[slot] |= filled[slot - 1] & hit


class FlowDecoder:
    """A flow's data slices, held by reference, with batched robust decode.

    Parameters
    ----------
    d:
        Split factor of the flow; any ``d`` independent slices reconstruct a
        message.
    field:
        Finite-field implementation.  Defaults to the shared
        :data:`~repro.core.gf.GF`.
    """

    def __init__(self, d: int, field: GF256 | None = None) -> None:
        if d < 1:
            raise CodingError(f"split factor d must be >= 1, got {d}")
        self.d = d
        self.field = GF if field is None else field
        self._coder = SliceCoder(d, field=self.field)
        #: Bit ``i`` of every mask is seq ``base + i``.
        self.base = 0
        self._planes: dict[int, _Plane] = {}
        self._extras: dict[int, list[CodedBlock]] = {}
        self._forwarded: dict[int, int] = {}  # per child, the seqs forwarded to it
        self._flushed = 0

    # -- masks -----------------------------------------------------------------------

    def _lower(self, seqs: list[int]) -> bool:
        """Lower the base to the lowest of ``seqs`` if below; whether they are one range."""
        run = _is_run(seqs)
        lowest = seqs[0] if run else min(seqs, default=self.base)
        if lowest < self.base:
            self._rebase(lowest)
        return run

    def seq_mask(self, seqs: list[int]) -> int:
        """The mask of ``seqs``, the base lowered first to the lowest of them if below."""
        if self._lower(seqs):
            return ((1 << len(seqs)) - 1) << (seqs[0] - self.base)
        return sum(1 << (seq - self.base) for seq in set(seqs))

    def mask_seqs(self, mask: int) -> list[int]:
        """The seqs of ``mask``, ascending."""
        return [self.base + offset for offset in mask_offsets(mask)]

    def ready(self, mask: int) -> int:
        """The seqs of ``mask`` holding at least ``d`` slices, extras included."""
        ready = sum(plane.at_least(mask & plane.held, self.d) for plane in self._planes.values())
        return ready | self._clashing(mask)[1]

    def _clashing(self, mask: int) -> tuple[int, int]:
        """The seqs of ``mask`` with length-clashing extras, and those holding ``d`` slices."""
        clashing = [seq for seq in self._extras if mask >> (seq - self.base) & 1]
        if not clashing:
            return 0, 0
        enough = [seq for seq in clashing if self.count(seq) >= self.d]
        return self.seq_mask(clashing), self.seq_mask(enough)

    def within(self, seqs: list[int], margin: int) -> list[int] | None:
        """The positions of ``seqs`` at most ``margin`` outside the seqs held or flushed.

        ``None`` when that is all of them.  A mask is as wide as the span from
        the base to its highest seq, so these rows widen none by more than
        ``margin`` bits.
        """
        low = self.base - margin
        high = self.base + max(self._held().bit_length(), self._flushed.bit_length()) + margin
        if low <= min(seqs, default=low) and max(seqs, default=low) < high:
            return None
        return [position for position, seq in enumerate(seqs) if low <= seq < high]

    def _rebase(self, base: int) -> None:
        by, self.base = base - self.base, base
        for plane in self._planes.values():
            plane.shift(by)
        self._forwarded = {child: shift_mask(mask, by) for child, mask in self._forwarded.items()}
        self._flushed = shift_mask(self._flushed, by)

    def _owner(self, seq: int) -> int | None:
        """The payload length of the plane holding ``seq``."""
        offset = seq - self.base
        if offset < 0:
            return None
        return next((key for key, plane in self._planes.items() if plane.held >> offset & 1), None)

    # -- forward and flush markers ---------------------------------------------------

    def mark_forwarded(self, child: int, mask: int) -> int:
        """Mark the seqs of ``mask`` forwarded to ``child``; returns those not marked before."""
        fed = self._forwarded.get(child, 0)
        self._forwarded[child] = fed | mask
        return mask & ~fed

    def mark_flushed(self, mask: int) -> int:
        """Mark the seqs of ``mask`` flushed; returns those not marked before."""
        fresh, self._flushed = mask & ~self._flushed, self._flushed | mask
        return fresh

    def unfed(self, mask: int, children: range) -> int:
        """The seqs of ``mask`` not yet forwarded to one of ``children``."""
        short = 0
        for child in children:
            short |= mask & ~self._forwarded.get(child, 0)
        return short

    def markers(self) -> tuple[set[tuple[int, int]], set[int]]:
        """The ``(seq, child)`` pairs forwarded and the seqs flushed."""
        forwarded = {
            (seq, child) for child, mask in self._forwarded.items() for seq in self.mask_seqs(mask)
        }
        return forwarded, set(self.mask_seqs(self._flushed))

    # -- storage ---------------------------------------------------------------------

    def __contains__(self, seq: int) -> bool:
        return self._owner(seq) is not None

    def __len__(self) -> int:
        """Number of sequence numbers currently holding slices."""
        return self._held().bit_count()

    def seqs(self) -> list[int]:
        """Sequence numbers with stored slices, ascending."""
        return self.mask_seqs(self._held())

    def _held(self) -> int:
        return sum(plane.held for plane in self._planes.values())  # planes are disjoint

    def count(self, seq: int) -> int:
        """Number of slices stored for ``seq`` (0 if unknown)."""
        return self.plane_count(seq) + len(self._extras.get(seq, ()))

    def plane_count(self, seq: int) -> int:
        """Slices of ``seq`` in its plane: :meth:`count` minus length-clashing extras."""
        key = self._owner(seq)
        if key is None:
            return 0
        offset = seq - self.base
        return sum(mask >> offset & 1 for mask in self._planes[key].lanes.values())

    def lanes(self, seq: int) -> list[int]:
        """Lanes that have delivered a slice for ``seq``, in arrival order."""
        return [block.index for block in self.blocks(seq)]

    def add(self, seq: int, lane: int, block: CodedBlock) -> bool:
        """Store one slice by reference; returns False for a duplicate (seq, lane)."""
        row = PacketBatch(0, block.d, lane, [seq], block.coefficients[None], block.payload[None])
        return bool(self.add_run(lane, row))

    def add_run(self, lane: int, items: PacketBatch) -> Sequence[int]:
        """Store a same-lane batch of slices; returns the rows accepted, ascending.

        A row is accepted unless a slice of its (seq, lane) is already
        stored, by an earlier batch or an earlier row of this one.  The
        batch is kept as it is, so no slice byte is copied here.  One
        ascending seq range with none of it stored yet — a parent delivering
        a burst on one lane — takes one AND, one OR and one append.
        """
        width = items.coefficients.shape[1]
        if width != self.d:
            raise CodingError(
                f"slice coded with split factor {width}, flow decoder expects {self.d}"
            )
        seqs, block_len, planes = items.seqs, items.payloads.shape[1], self._planes
        plane = planes.get(block_len) or planes.setdefault(block_len, _Plane())
        if self._lower(seqs) and not self._extras:
            span = ((1 << len(seqs)) - 1) << (seqs[0] - self.base)
            lane_mask = plane.lanes.get(lane, 0)
            if not lane_mask & span and (len(planes) == 1 or not any(
                other.held & span for other in planes.values() if other is not plane
            )):
                plane.lanes[lane] = lane_mask | span
                plane.held |= span
                plane.runs.append([(1 << len(seqs)) - 1, seqs[0], lane, items])
                return range(len(seqs))
        base, extras, lane_mask = self.base, self._extras, plane.lanes.get(lane, 0)
        accepted: list[int] = []
        for position, seq in enumerate(seqs):
            bit = 1 << (seq - base)
            if extras and any(extra.index == lane for extra in extras.get(seq, ())):
                continue
            key = self._owner(seq)
            owner = plane if key is None else self._planes[key]
            if owner is not plane:
                # Length clash within one sequence: a non-conforming sender.
                # Park the slice; decoding this seq goes through the scalar
                # fallback.
                if not owner.lanes.get(lane, 0) & bit:
                    extras.setdefault(seq, []).append(CodedBlock(
                        items.coefficients[position], items.payloads[position], index=lane
                    ))
                    accepted.append(position)
                continue
            if lane_mask & bit:
                continue
            lane_mask |= bit
            plane.held |= bit
            last = plane.runs[-1] if plane.runs else None
            if last and last[3] is items and last[2] == lane and last[1] == seq - position:
                last[0] |= 1 << position
            else:
                plane.runs.append([1 << position, seq - position, lane, items])
            accepted.append(position)
        if lane_mask:
            plane.lanes[lane] = lane_mask
        return accepted

    def recombine_many(self, items: list[tuple[int, np.ndarray]]) -> list[np.ndarray]:
        """One linear combination per ``(seq, weights)`` item, one product per plane.

        ``weights`` scales the first ``len(weights)`` slices of ``seq``'s
        plane, gathered into one zero-padded stack per plane.  Returns one
        ``(d + block_len,)`` combination per item, coefficients first, each
        bit-identical to ``SliceCoder.recombine`` over the item's blocks with
        its weights.
        """
        per_plane: dict[int, list[int]] = {}
        for position, (seq, _) in enumerate(items):
            per_plane.setdefault(self._owner(seq), []).append(position)
        combined: list[np.ndarray] = [None] * len(items)
        for block_len, positions in per_plane.items():
            chosen = [items[position] for position in positions]
            padded = np.zeros((len(chosen), 1, max(len(w) for _, w in chosen)), dtype=np.uint8)
            for row, (_, weights) in enumerate(chosen):
                padded[row, 0, : len(weights)] = weights
            mask = self.seq_mask([seq for seq, _ in chosen])
            stack = np.zeros((mask.bit_count(), padded.shape[2], self.d + block_len), np.uint8)
            self._planes[block_len].gather(self.base, mask, stack[..., : self.d],
                                           stack[..., self.d :])
            row_of = {offset: row for row, offset in enumerate(mask_offsets(mask))}
            stack = stack[[row_of[seq - self.base] for seq, _ in chosen]]
            for position, row in zip(positions, self.field.batched_matmul(padded, stack)[:, 0]):
                combined[position] = row
        return combined

    def blocks(self, seq: int) -> list[CodedBlock]:
        """Reconstruct the stored slices of ``seq`` as blocks, in arrival order."""
        key = self._owner(seq)
        if key is None:
            return []
        blocks = [
            CodedBlock(batch.coefficients[seq - shift].copy(), batch.payloads[seq - shift].copy(),
                       index=lane)
            for rows, shift, lane, batch in self._planes[key].runs
            if seq >= shift and rows >> (seq - shift) & 1
        ]
        return blocks + self._extras.get(seq, [])

    def retire_before(self, before_seq: int) -> int:
        """Drop every sequence number ``< before_seq``; returns count dropped."""
        if before_seq <= self.base:
            return 0
        dropped = len(self)
        self._rebase(before_seq)
        self._planes = {key: plane for key, plane in self._planes.items() if plane.held}
        for plane in self._planes.values():
            for run in plane.runs:
                if run[1] < before_seq:  # rows below the base go; a run wholly below goes
                    run[0] &= -1 << (before_seq - run[1])
            plane.runs = [run for run in plane.runs if run[0]]
        self._extras = {seq: blocks for seq, blocks in self._extras.items() if seq >= before_seq}
        return dropped - len(self)

    # -- batched decode ----------------------------------------------------------------

    def decode_many(self, seqs: list[int]) -> dict[int, bytes]:
        """Robust-decode every listed sequence that can decode, in one batch.

        Returns ``{seq: unwrapped payload}``; sequences whose slices cannot
        produce a verifying decode (not enough independent slices, or only
        churn padding) are simply absent from the result.  Byte-identical to
        calling :func:`~repro.core.integrity.robust_decode` per sequence.
        """
        base = self.base
        want = self.seq_mask([seq for seq in seqs if seq >= base])
        clashing, enough = self._clashing(want)
        fallback = self.mask_seqs(enough)
        want &= ~clashing
        decoded: dict[int, bytes] = {}
        for block_len, plane in self._planes.items():
            mask = plane.at_least(want & plane.held, self.d)
            if not mask:
                continue
            candidates = self.mask_seqs(mask)
            coeffs = np.empty((len(candidates), self.d, self.d), dtype=np.uint8)
            payloads = np.empty((len(candidates), self.d, block_len), dtype=np.uint8)
            plane.gather(base, mask, coeffs, payloads)
            inverses, invertible = self.field.try_invert_matrices(coeffs)
            if invertible.any():
                sub = np.flatnonzero(invertible)
                pieces = self.field.batched_matmul(inverses[sub], payloads[sub])
                for position, batch_index in enumerate(sub):
                    seq = candidates[int(batch_index)]
                    try:
                        candidate = _unpad_message(pieces[position])
                    except CodingError:
                        fallback.append(seq)
                        continue
                    if verify(candidate):
                        decoded[seq] = unwrap(candidate)
                    else:
                        fallback.append(seq)
            fallback.extend(candidates[int(i)] for i in np.flatnonzero(~invertible))
        for seq in fallback:
            try:
                decoded[seq] = robust_decode(self._coder, self.blocks(seq))
            except (InsufficientSlicesError, CodingError):
                continue
        return decoded
