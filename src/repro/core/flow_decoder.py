"""Per-flow batched data-slice store and decoder (the relay's data plane).

A relay on the steady-state data path used to keep one ``dict[int,
CodedBlock]`` per sequence number and run a scalar Gauss–Jordan per message
(:func:`~repro.core.integrity.robust_decode`).  :class:`FlowDecoder` replaces
that per-message structure with batched decoding over slices held by
reference: each stored run is the received
:class:`~repro.core.packet.PacketBatch` itself (its columns are read-only),
and each (seq, slot) records which run and which of its rows holds the slice,
so a relay that only forwards owns no slice bytes.  A run is released once
every seq it fed has been dropped or retired.  A decode or a regeneration
gathers the slices it reads into ``(seqs, slots, d)`` coefficient and
``(seqs, slots, block_len)`` payload stacks, so a burst of deliverable
messages decodes through the batched GF(2^8) kernels
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


class _Plane:
    """Slice references for all sequences sharing one payload length.

    The plane owns no slice bytes: a run is the received batch itself, kept
    until the last slot it feeds is dropped, and :meth:`gather` copies
    slices out for a reader.  Per-row bookkeeping (arrival-ordered lanes,
    duplicate sets, slot references) stays in plain Python containers, which
    are markedly cheaper than element-wise numpy indexing on the per-packet
    path.
    """

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}
        self.free: list[int] = []
        #: Referenced runs by id, and how many filled slots each still feeds.
        self.runs: dict[int, PacketBatch] = {}
        self.run_slots: dict[int, int] = {}
        self.next_run = 0
        #: Arrival-ordered lane of every filled slot, per row.
        self.lane_lists: list[list[int]] = []
        #: Per-row lane membership for O(1) duplicate detection.
        self.lane_sets: list[set[int]] = []
        #: ``(run id, row of that run)`` of every filled slot, per row.
        self.slot_refs: list[list[tuple[int, int]]] = []

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
                coefficients=self.runs[run].coefficients[at].copy(),
                payload=self.runs[run].payloads[at].copy(),
                index=lane,
            )
            for (run, at), lane in zip(self.slot_refs[row], self.lane_lists[row])
        ]

    def gather(self, rows: list[int], coeffs: np.ndarray, payloads: np.ndarray) -> None:
        """Copy the slices of ``rows[i]`` into ``coeffs[i]`` / ``payloads[i]``, arrival order.

        At most ``coeffs.shape[1]`` slices per row, in one fancy-index read
        and write per referenced run; slots past a row's count are left as
        they are.
        """
        per_run: dict[int, tuple[list[int], list[int], list[int]]] = {}
        for position, row in enumerate(rows):
            for slot, (run, at) in enumerate(self.slot_refs[row][: coeffs.shape[1]]):
                positions, slots, ats = per_run.setdefault(run, ([], [], []))
                positions.append(position)
                slots.append(slot)
                ats.append(at)
        for run, (positions, slots, at) in per_run.items():
            coeffs[positions, slots] = self.runs[run].coefficients[at]
            payloads[positions, slots] = self.runs[run].payloads[at]

    def drop(self, seq: int) -> bool:
        row = self.rows.pop(seq, None)
        if row is None:
            return False
        run_slots = self.run_slots
        for run, _ in self.slot_refs[row]:
            run_slots[run] -= 1
            if not run_slots[run]:
                del run_slots[run], self.runs[run]
        self.lane_lists[row].clear()
        self.lane_sets[row].clear()
        self.slot_refs[row].clear()
        self.free.append(row)
        return True

    def _allocate_row(self, seq: int) -> int:
        if self.free:
            row = self.free.pop()
        else:
            row = len(self.lane_lists)
            self.lane_lists.append([])
            self.lane_sets.append(set())
            self.slot_refs.append([])
        self.rows[seq] = row
        return row


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
        """Store one slice by reference; returns False for a duplicate (seq, lane)."""
        row = PacketBatch(0, block.d, lane, [seq], block.coefficients[None], block.payload[None])
        return bool(self.add_run(lane, row))

    def add_run(self, lane: int, items: PacketBatch) -> list[int]:
        """Store a same-lane batch of slices; returns the rows accepted, ascending.

        This is the shape a relay receives on the steady-state data path —
        one parent connection delivering a burst of consecutive sequence
        numbers on one lane.  The bookkeeping (row, slot, duplicate lane)
        runs per seq; the plane keeps ``items`` itself and records which of
        its rows each slot holds, so no slice byte is copied here.
        """
        width = items.coefficients.shape[1]
        if width != self.d:
            raise CodingError(
                f"slice coded with split factor {width}, flow decoder expects {self.d}"
            )
        block_len = items.payloads.shape[1]
        seq_plane, extras = self._seq_plane, self._extras
        plane = self._planes.get(block_len)
        if plane is None:
            plane = self._planes[block_len] = _Plane()
        rows, lane_sets, lane_lists, slot_refs = (
            plane.rows, plane.lane_sets, plane.lane_lists, plane.slot_refs
        )
        run = plane.next_run
        accepted: list[int] = []
        filled = 0
        for position, seq in enumerate(items.seqs):
            owner = seq_plane.get(seq)
            if owner is None:
                seq_plane[seq] = owner = block_len
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
            row = rows.get(seq)
            if row is None:
                row = plane._allocate_row(seq)
            lane_set = lane_sets[row]
            if lane in lane_set:
                continue
            lane_lists[row].append(lane)
            lane_set.add(lane)
            slot_refs[row].append((run, position))
            accepted.append(position)
            filled += 1
        if filled:
            plane.next_run += 1
            plane.runs[run], plane.run_slots[run] = items, filled
        return accepted

    def recombine_many(
        self, items: list[tuple[int, np.ndarray]]
    ) -> list[tuple[list[int], np.ndarray]]:
        """One linear combination per ``(seq, weights)`` item, one product per plane.

        ``weights`` scales the first ``len(weights)`` slices of ``seq``'s
        plane, gathered into one zero-padded stack per plane.  Returns, per
        plane in first-seen order, the positions of its items and their
        ``(len(positions), d + block_len)`` combinations, coefficients first:
        row ``i`` is bit-identical to ``SliceCoder.recombine`` over item
        ``positions[i]``'s blocks with its weights.
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
            stack = np.zeros((len(chosen), padded.shape[2], self.d + block_len), dtype=np.uint8)
            plane.gather([plane.rows[seq] for seq, _ in chosen], stack[..., : self.d],
                         stack[..., self.d :])
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
            coeffs = np.empty((len(candidates), self.d, self.d), dtype=np.uint8)
            payloads = np.empty((len(candidates), self.d, block_len), dtype=np.uint8)
            plane.gather([plane.rows[seq] for seq in candidates], coeffs, payloads)
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
