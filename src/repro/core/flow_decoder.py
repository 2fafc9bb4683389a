"""Per-flow batched data-slice store and decoder (the relay's data plane).

A relay on the steady-state data path used to keep one ``dict[int,
CodedBlock]`` per sequence number and run a scalar Gauss–Jordan per message
(:func:`~repro.core.integrity.robust_decode`).  :class:`FlowDecoder` replaces
that per-message structure with array-native accumulation: slices of a flow
live in ``(seqs, slots, d)`` coefficient stacks and ``(seqs, slots,
block_len)`` payload stacks, so a burst of deliverable messages decodes
through the batched GF(2^8) kernels (:meth:`GF256.invert_matrices
<repro.core.gf.GF256.invert_matrices>` / :meth:`GF256.batched_matmul
<repro.core.gf.GF256.batched_matmul>`) in a constant number of numpy passes.

One stack (*plane*) exists per distinct payload length; the protocol's
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


#: Initial number of sequence rows allocated per plane.
_INITIAL_ROWS = 8

#: Initial number of slice slots per sequence row (grown on demand; ``d'``
#: parents is the steady state).
_INITIAL_SLOTS = 4


class _Plane:
    """Array storage for all sequences sharing one payload length.

    Coefficients and payloads live in numpy stacks (the decode kernels read
    them in place); per-row bookkeeping (arrival-ordered lanes, duplicate
    sets) stays in plain Python containers, which are markedly cheaper than
    element-wise numpy indexing on the per-packet path.
    """

    def __init__(self, d: int, block_len: int) -> None:
        self.d = d
        self.block_len = block_len
        self.rows: dict[int, int] = {}
        self.free: list[int] = []
        self.coeffs = np.zeros((_INITIAL_ROWS, _INITIAL_SLOTS, d), dtype=np.uint8)
        self.payloads = np.zeros(
            (_INITIAL_ROWS, _INITIAL_SLOTS, block_len), dtype=np.uint8
        )
        #: Arrival-ordered lane of every filled slot, per row.
        self.lane_lists: list[list[int]] = [[] for _ in range(_INITIAL_ROWS)]
        #: Per-row lane membership for O(1) duplicate detection.
        self.lane_sets: list[set[int]] = [set() for _ in range(_INITIAL_ROWS)]

    def count(self, seq: int) -> int:
        row = self.rows.get(seq)
        return 0 if row is None else len(self.lane_lists[row])

    def lanes_for(self, seq: int) -> list[int]:
        row = self.rows.get(seq)
        return [] if row is None else list(self.lane_lists[row])

    def blocks(self, seq: int) -> list[CodedBlock]:
        row = self.rows.get(seq)
        if row is None:
            return []
        return [
            CodedBlock(
                coefficients=self.coeffs[row, slot].copy(),
                payload=self.payloads[row, slot].copy(),
                index=lane,
            )
            for slot, lane in enumerate(self.lane_lists[row])
        ]

    def drop(self, seq: int) -> bool:
        row = self.rows.pop(seq, None)
        if row is None:
            return False
        self.lane_lists[row].clear()
        self.lane_sets[row].clear()
        self.free.append(row)
        return True

    def _allocate_row(self, seq: int) -> int:
        if self.free:
            row = self.free.pop()
        else:
            row = len(self.rows)
            if row >= self.coeffs.shape[0]:
                self._grow_rows()
        self.rows[seq] = row
        return row

    def _grow_rows(self) -> None:
        old = self.coeffs.shape[0]
        new = old * 2
        slots = self.coeffs.shape[1]
        self.coeffs = _grown(self.coeffs, (new, slots, self.d))
        self.payloads = _grown(self.payloads, (new, slots, self.block_len))
        self.lane_lists.extend([] for _ in range(new - old))
        self.lane_sets.extend(set() for _ in range(new - old))

    def _grow_slots(self) -> None:
        rows, old = self.coeffs.shape[0], self.coeffs.shape[1]
        new = old * 2
        self.coeffs = _grown(self.coeffs, (rows, new, self.d), axis=1)
        self.payloads = _grown(self.payloads, (rows, new, self.block_len), axis=1)


def _grown(array: np.ndarray, shape: tuple[int, ...], axis: int = 0) -> np.ndarray:
    out = np.zeros(shape, dtype=array.dtype)
    if axis == 0:
        out[: array.shape[0]] = array
    else:
        out[:, : array.shape[1]] = array
    return out


class FlowDecoder:
    """Array-native store of a flow's data slices, with batched robust decode.

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
        self._planes: dict[int, _Plane] = {}
        self._seq_plane: dict[int, int] = {}
        self._extras: dict[int, list[CodedBlock]] = {}

    # -- storage ---------------------------------------------------------------------

    def __contains__(self, seq: int) -> bool:
        return seq in self._seq_plane

    def __len__(self) -> int:
        """Number of sequence numbers currently holding slices."""
        return len(self._seq_plane)

    def seqs(self) -> list[int]:
        """Sequence numbers with stored slices, in first-seen order."""
        return list(self._seq_plane)

    def count(self, seq: int) -> int:
        """Number of slices stored for ``seq`` (0 if unknown)."""
        block_len = self._seq_plane.get(seq)
        if block_len is None:
            return 0
        count = self._planes[block_len].count(seq)
        extras = self._extras.get(seq)
        return count if extras is None else count + len(extras)

    def plane_count(self, seq: int) -> int:
        """Slices of ``seq`` in its plane: :meth:`count` minus length-clashing extras."""
        block_len = self._seq_plane.get(seq)
        return 0 if block_len is None else self._planes[block_len].count(seq)

    def lanes(self, seq: int) -> list[int]:
        """Lanes that have delivered a slice for ``seq``, in arrival order."""
        block_len = self._seq_plane.get(seq)
        if block_len is None:
            return []
        lanes = self._planes[block_len].lanes_for(seq)
        lanes.extend(block.index for block in self._extras.get(seq, []))
        return lanes

    def add(self, seq: int, lane: int, block: CodedBlock) -> bool:
        """Store one slice; returns False for a duplicate (seq, lane)."""
        row = PacketBatch(0, block.d, lane, [seq], block.coefficients[None], block.payload[None])
        return bool(self.add_run(lane, row))

    def add_run(self, lane: int, items: PacketBatch) -> list[int]:
        """Store a same-lane batch of slices; returns the rows accepted, ascending.

        This is the shape a relay receives on the steady-state data path —
        one parent connection delivering a burst of consecutive sequence
        numbers on one lane.  The bookkeeping (row, slot, duplicate lane)
        runs per seq; the slices are copied into the plane in one
        fancy-index pair, so nothing here keeps a view of the batch.
        """
        width = items.coefficients.shape[1]
        if width != self.d:
            raise CodingError(
                f"slice coded with split factor {width}, flow decoder expects {self.d}"
            )
        block_len = items.payloads.shape[1]
        seq_plane, extras = self._seq_plane, self._extras
        plane = self._planes.get(block_len)
        accepted: list[int] = []
        # The regular rows: batch row, plane row and slot.
        sources: list[int] = []
        rows: list[int] = []
        slots: list[int] = []
        for position, seq in enumerate(items.seqs):
            owner = seq_plane.get(seq)
            if owner is None:
                seq_plane[seq] = owner = block_len
                if plane is None:
                    plane = self._planes[block_len] = _Plane(self.d, block_len)
            if extras and any(extra.index == lane for extra in extras.get(seq, ())):
                continue
            if owner != block_len:
                # Length clash within one sequence: a non-conforming sender.
                # Park the slice; decoding this seq goes through the scalar
                # fallback.
                if lane not in self._planes[owner].lanes_for(seq):
                    extras.setdefault(seq, []).append(CodedBlock(
                        items.coefficients[position], items.payloads[position], index=lane
                    ))
                    accepted.append(position)
                continue
            row = plane.rows.get(seq)
            if row is None:
                row = plane._allocate_row(seq)
            lane_set = plane.lane_sets[row]
            if lane in lane_set:
                continue
            lanes = plane.lane_lists[row]
            if len(lanes) == plane.coeffs.shape[1]:
                plane._grow_slots()
            sources.append(position)
            rows.append(row)
            slots.append(len(lanes))
            lanes.append(lane)
            lane_set.add(lane)
            accepted.append(position)
        if rows:
            # Growth keeps every (row, slot) in place, so the writes can wait.
            coefficients, payloads = items.coefficients, items.payloads
            if len(sources) < len(items.seqs):
                coefficients, payloads = coefficients[sources], payloads[sources]
            plane.coeffs[rows, slots] = coefficients
            plane.payloads[rows, slots] = payloads
        return accepted

    def recombine_many(
        self, items: list[tuple[int, np.ndarray]]
    ) -> list[tuple[list[int], np.ndarray]]:
        """One linear combination per ``(seq, weights)`` item, one product per plane.

        ``weights`` scales the first ``len(weights)`` slices of ``seq``'s
        plane; zero-padding to the widest item keeps stale slots of reused
        rows out of the sum.  Returns, per plane in first-seen order, the
        positions of its items and their ``(len(positions), d + block_len)``
        combinations, coefficients first: row ``i`` is bit-identical to
        ``SliceCoder.recombine`` over item ``positions[i]``'s blocks with its
        weights.
        """
        per_plane: dict[int, list[int]] = {}
        for position, (seq, _) in enumerate(items):
            per_plane.setdefault(self._seq_plane[seq], []).append(position)
        combined: list[tuple[list[int], np.ndarray]] = []
        for block_len, positions in per_plane.items():
            plane = self._planes[block_len]
            chosen = [items[position] for position in positions]
            padded = np.zeros((len(chosen), 1, max(len(w) for _, w in chosen)), dtype=np.uint8)
            for row, (_, weights) in enumerate(chosen):
                padded[row, 0, : len(weights)] = weights
            rows, width = [plane.rows[seq] for seq, _ in chosen], padded.shape[2]
            stack = np.concatenate((plane.coeffs[rows, :width], plane.payloads[rows, :width]), 2)
            combined.append((positions, self.field.batched_matmul(padded, stack)[:, 0]))
        return combined

    def blocks(self, seq: int) -> list[CodedBlock]:
        """Reconstruct the stored slices of ``seq`` as blocks, in arrival order."""
        block_len = self._seq_plane.get(seq)
        if block_len is None:
            return []
        blocks = self._planes[block_len].blocks(seq)
        blocks.extend(self._extras.get(seq, []))
        return blocks

    def drop(self, seq: int) -> bool:
        """Forget all slices of ``seq``; returns False if it held none."""
        block_len = self._seq_plane.pop(seq, None)
        if block_len is None:
            return False
        self._planes[block_len].drop(seq)
        self._extras.pop(seq, None)
        return True

    def retire_before(self, before_seq: int) -> int:
        """Drop every sequence number ``< before_seq``; returns count dropped."""
        stale = [seq for seq in self._seq_plane if seq < before_seq]
        for seq in stale:
            self.drop(seq)
        return len(stale)

    # -- batched decode ----------------------------------------------------------------

    def decode_many(self, seqs: list[int]) -> dict[int, bytes]:
        """Robust-decode every listed sequence that can decode, in one batch.

        Returns ``{seq: unwrapped payload}``; sequences whose slices cannot
        produce a verifying decode (not enough independent slices, or only
        churn padding) are simply absent from the result.  Byte-identical to
        calling :func:`~repro.core.integrity.robust_decode` per sequence.
        """
        per_plane: dict[int, list[int]] = {}
        fallback: list[int] = []
        for seq in seqs:
            if self.count(seq) < self.d:
                continue
            block_len = self._seq_plane[seq]
            if seq in self._extras or self._planes[block_len].count(seq) < self.d:
                fallback.append(seq)
            else:
                per_plane.setdefault(block_len, []).append(seq)
        decoded: dict[int, bytes] = {}
        for block_len, candidates in per_plane.items():
            plane = self._planes[block_len]
            rows = np.array([plane.rows[seq] for seq in candidates])
            coeffs = plane.coeffs[rows, : self.d]
            payloads = plane.payloads[rows, : self.d]
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
