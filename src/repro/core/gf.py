"""Finite-field arithmetic over GF(2^8).

Information slicing (§4.1 of the paper) randomises messages by multiplying
them with random matrices over a finite field ``F_{p^q}``.  This module
implements GF(2^8) — the field used by virtually every practical erasure /
network-coding system — with vectorised numpy kernels built on log/antilog
tables.

The field is represented by :class:`GF256`.  Elements are ``uint8`` values
(or numpy arrays thereof); addition is XOR, multiplication uses the
discrete-log tables of the multiplicative group generated by ``0x03`` under
the AES/Rijndael reduction polynomial ``x^8 + x^4 + x^3 + x + 1`` (0x11B).

A single module-level instance :data:`GF` is what the rest of the library
uses; constructing additional instances is cheap and only useful for tests
that want an isolated table set.

Nobody selects an implementation.  Elementwise :meth:`GF256.multiply` is
always the numpy table lookup; the two stacked loops —
:meth:`GF256.batched_matmul` and the batched Gauss–Jordan elimination of an
augmented ``[A | R]`` stack, behind both :meth:`GF256.try_invert_matrices`
(``R = I``) and :meth:`GF256.solve` — run in the C provider of
:mod:`repro.core.gf_kernels` when it loads on this host (resolved on the
first such call, once per process) and in numpy otherwise.  The numpy
implementations are the reference the C loops are bit-identical to;
:func:`active_kernel` says which side this process runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import gf_kernels
from .errors import FieldError

#: The AES / Rijndael reduction polynomial x^8 + x^4 + x^3 + x + 1.
DEFAULT_POLYNOMIAL = 0x11B

#: Generator of the multiplicative group under the default polynomial.
DEFAULT_GENERATOR = 0x03

#: Field order.
ORDER = 256


def _build_tables(poly: int, generator: int) -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables for GF(2^8) under ``poly`` with ``generator``.

    Returns ``(exp_table, log_table)`` where ``exp_table`` has 512 entries so
    that ``exp[log[a] + log[b]]`` never needs an explicit modulo.  The log
    table is ``int16`` — wide enough that ``log[a] + log[b]`` (at most 508)
    never overflows, narrow enough that uint8 operands index it directly
    without a per-call ``astype`` round-trip.
    """
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int16)
    x = 1
    seen: set[int] = set()
    for i in range(255):
        if x in seen:
            # The generator's multiplicative order divides 255 but is smaller,
            # so it only spans a subgroup and the tables would be wrong.
            raise FieldError(
                f"0x{generator:02x} is not a generator of GF(2^8) under 0x{poly:03x}"
            )
        seen.add(x)
        exp[i] = x
        log[x] = i
        # Multiply x by the generator in GF(2^8).
        x = _slow_multiply(x, generator, poly)
    if x != 1:
        raise FieldError(
            f"0x{generator:02x} is not a generator of GF(2^8) under 0x{poly:03x}"
        )
    exp[255:510] = exp[0:255]
    exp[510] = exp[0]
    exp[511] = exp[1]
    return exp, log


def _slow_multiply(a: int, b: int, poly: int) -> int:
    """Bitwise carry-less multiply-and-reduce; only used to build tables."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= poly
        b >>= 1
    return result


class GF256:
    """Arithmetic over GF(2^8) with vectorised numpy operations.

    All binary operations accept scalars or numpy arrays (broadcasting like
    numpy ufuncs) and return ``uint8`` arrays.  Division by zero raises
    :class:`~repro.core.errors.FieldError`.

    ``compiled=False`` keeps :meth:`batched_matmul` and the batched
    Gauss–Jordan elimination on the numpy reference even where the C
    provider loads — the side ``tests/test_gf_kernels.py``'s
    ``test_compiled_batched_matmul_*`` and ``test_compiled_inversion_*``
    compare against; nothing on a run path passes it.
    """

    def __init__(
        self,
        polynomial: int = DEFAULT_POLYNOMIAL,
        generator: int = DEFAULT_GENERATOR,
        compiled: bool = True,
    ) -> None:
        self.polynomial = polynomial
        self.generator = generator
        self.order = ORDER
        self._exp, self._log = _build_tables(polynomial, generator)
        # Precompute the full inverse table: inv[0] stays 0 and is guarded.
        inv = np.zeros(256, dtype=np.uint8)
        nonzero = np.arange(1, 256)
        inv[1:] = self._exp[255 - self._log[nonzero]]
        self._inv = inv
        self._compiled = compiled
        self._mul_table: np.ndarray | None = None

    def _c_loops(self) -> gf_kernels.CProvider | None:
        """The C provider when the stacked loops dispatch to it, else ``None``."""
        provider = gf_kernels.load_provider() if self._compiled else None
        if provider is not None and self._mul_table is None:
            # The flattened 256x256 product table the C loops index.
            elements = np.arange(256, dtype=np.uint8)
            table = self._numpy_multiply(elements[:, None], elements[None, :])
            self._mul_table = np.ascontiguousarray(table.reshape(-1))
        return provider

    # -- element-wise operations -------------------------------------------------

    def add(self, a, b) -> np.ndarray:
        """Field addition (XOR).

        >>> int(GF.add(0x57, 0x83))
        212
        >>> int(GF.add(5, 5))  # every element is its own additive inverse
        0
        """
        return np.bitwise_xor(
            np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
        )

    # Subtraction is identical to addition in characteristic 2.
    subtract = add

    def multiply(self, a, b) -> np.ndarray:
        """Element-wise field multiplication.

        The classic AES worked example, 0x57 * 0x83 = 0xc1:

        >>> hex(int(GF.multiply(0x57, 0x83)))
        '0xc1'
        >>> GF.multiply([2, 3], [3, 7]).tolist()
        [6, 9]
        """
        return self._numpy_multiply(
            np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
        )

    def _numpy_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # uint8 operands index the int16 log table directly; the int16 sum
        # (at most 508) indexes the 512-entry exp table without a modulo.
        result = self._exp[self._log[a] + self._log[b]]
        zero = (a == 0) | (b == 0)
        return np.where(zero, np.uint8(0), result).astype(np.uint8)

    def divide(self, a, b) -> np.ndarray:
        """Element-wise division ``a / b``; raises on any zero divisor."""
        b = np.asarray(b, dtype=np.uint8)
        if np.any(b == 0):
            raise FieldError("division by zero in GF(2^8)")
        a = np.asarray(a, dtype=np.uint8)
        result = self._exp[self._log[a] - self._log[b] + 255]
        return np.where(a == 0, np.uint8(0), result).astype(np.uint8)

    def inverse(self, a) -> np.ndarray:
        """Multiplicative inverse of each element; raises if any is zero.

        >>> x = GF.inverse(0x57)
        >>> int(GF.multiply(0x57, x))
        1
        """
        a = np.asarray(a, dtype=np.uint8)
        if np.any(a == 0):
            raise FieldError("zero has no multiplicative inverse in GF(2^8)")
        return self._inv[a]

    # -- linear algebra ----------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product over GF(2^8).

        ``a`` has shape ``(m, k)`` and ``b`` shape ``(k, n)`` (1-D operands are
        promoted the same way :func:`numpy.matmul` promotes them).  Operands
        with three or more dimensions are treated as stacks of matrices and
        dispatched to :meth:`batched_matmul`.
        """
        if np.asarray(a).ndim > 2 or np.asarray(b).ndim > 2:
            return self.batched_matmul(a, b)
        a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
        b_in = np.asarray(b, dtype=np.uint8)
        b2 = b_in.reshape(-1, 1) if b_in.ndim == 1 else b_in
        if a.shape[1] != b2.shape[0]:
            raise FieldError(
                f"matmul shape mismatch: {a.shape} x {b2.shape}"
            )
        # products[i, k, j] = a[i, k] * b[k, j]; XOR-reduce over k.
        products = self.multiply(a[:, :, None], b2[None, :, :])
        result = np.bitwise_xor.reduce(products, axis=1)
        if b_in.ndim == 1:
            return result.reshape(-1)
        return result

    def batched_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product broadcast over leading batch axes.

        ``a`` has shape ``(..., m, k)`` and ``b`` shape ``(..., k, n)``; the
        batch axes broadcast like numpy ufuncs, so a single ``(m, k)`` matrix
        can multiply a ``(batch, k, n)`` stack and vice versa.  This is the
        kernel behind :meth:`SliceCoder.encode_batch
        <repro.core.coder.SliceCoder.encode_batch>`: one call codes a whole
        batch of messages without per-message Python overhead.
        """
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if a.ndim < 2 or b.ndim < 2:
            raise FieldError(
                "batched matmul operands must have at least 2 dimensions, "
                f"got {a.shape} x {b.shape}"
            )
        if a.shape[-1] != b.shape[-2]:
            raise FieldError(f"matmul shape mismatch: {a.shape} x {b.shape}")
        provider = self._c_loops()
        if provider is not None:
            return self._compiled_batched_matmul(provider, a, b)
        # products[..., i, k, j] = a[..., i, k] * b[..., k, j]; XOR-reduce over k.
        products = self._numpy_multiply(a[..., :, :, None], b[..., None, :, :])
        return np.bitwise_xor.reduce(products, axis=-2)

    def _compiled_batched_matmul(
        self, provider: gf_kernels.CProvider, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        batch_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        m, k = a.shape[-2:]
        n = b.shape[-1]
        batch = math.prod(batch_shape)
        out = np.empty((*batch_shape, m, n), dtype=np.uint8)
        if out.size and k:
            if a.shape[:-2] != batch_shape:
                a = np.broadcast_to(a, (*batch_shape, m, k))
            if b.shape[:-2] != batch_shape:
                b = np.broadcast_to(b, (*batch_shape, k, n))
            stack_a = np.ascontiguousarray(a).reshape(batch, m, k)
            stack_b = np.ascontiguousarray(b).reshape(batch, k, n)
            provider.batched_matmul(
                stack_a, stack_b, out.reshape(batch, m, n), self._mul_table
            )
        elif out.size:
            out[...] = 0  # XOR-reduce over an empty k axis is the identity
        return out

    def rank(self, matrix: np.ndarray) -> int:
        """Rank of ``matrix`` over GF(2^8) via Gaussian elimination."""
        m = np.array(matrix, dtype=np.uint8, copy=True)
        if m.ndim != 2:
            raise FieldError("rank expects a 2-D matrix")
        rows, cols = m.shape
        rank = 0
        for col in range(cols):
            if rank >= rows:
                break
            pivot_rows = np.nonzero(m[rank:, col])[0]
            if pivot_rows.size == 0:
                continue
            pivot = pivot_rows[0] + rank
            if pivot != rank:
                m[[rank, pivot]] = m[[pivot, rank]]
            m[rank] = self.divide(m[rank], m[rank, col])
            below = np.arange(rows) != rank
            factors = m[below, col]
            m[below] = self.add(m[below], self.multiply(factors[:, None], m[rank][None, :]))
            rank += 1
        return rank

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``a @ x = b`` for a square, invertible ``a``.

        ``b`` may be a vector or a matrix of stacked right-hand-side columns.
        One Gauss–Jordan elimination of the augmented ``[a | b]`` — the
        stacked loop of :meth:`try_invert_matrices`, C where the provider
        loads — leaves ``x`` where ``b`` was, so no inverse is formed and no
        product follows.  The field is exact, so ``x = a⁻¹ b`` is unique and
        equals ``matmul(invert_matrix(a), b)`` byte for byte.  Raises
        :class:`FieldError` when ``a`` is singular.

        >>> a = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        >>> x = np.array([5, 6], dtype=np.uint8)
        >>> np.array_equal(GF.solve(a, GF.matmul(a, x)), x)
        True
        """
        a = np.asarray(a, dtype=np.uint8)
        b_in = np.asarray(b, dtype=np.uint8)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise FieldError(f"solve expects a square matrix, got {a.shape}")
        n = a.shape[0]
        b2 = b_in.reshape(-1, 1) if b_in.ndim == 1 else b_in
        if b2.ndim != 2 or b2.shape[0] != n:
            raise FieldError(f"solve shape mismatch: {a.shape} x {b_in.shape}")
        aug = np.empty((1, n, n + b2.shape[1]), dtype=np.uint8)
        aug[0, :, :n] = a
        aug[0, :, n:] = b2
        if self._eliminate(aug)[0]:
            raise FieldError("matrix is singular over GF(2^8)")
        x = aug[0, :, n:]
        return x.reshape(-1) if b_in.ndim == 1 else x

    def invert_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Invert a square matrix over GF(2^8): the one-matrix case of
        :meth:`invert_matrices`, raising :class:`FieldError` when singular."""
        a = np.asarray(matrix, dtype=np.uint8)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise FieldError(f"cannot invert non-square matrix of shape {a.shape}")
        return self.invert_matrices(a[None])[0]

    def invert_matrices(self, matrices: np.ndarray) -> np.ndarray:
        """Invert a ``(batch, n, n)`` stack of square matrices in one pass.

        All pivot searches, row swaps and eliminations run batched across the
        stack, so the Python-level loop is only ``n`` iterations long no
        matter how many matrices are inverted.  Raises :class:`FieldError`
        if any matrix in the stack is singular.
        """
        inverses, singular = self._gauss_jordan_batch(matrices)
        if singular.any():
            raise FieldError(
                f"{int(singular.sum())} of {singular.size} matrices are "
                "singular over GF(2^8)"
            )
        return inverses

    def invertible_mask(self, matrices: np.ndarray) -> np.ndarray:
        """Boolean mask of which matrices in a ``(batch, n, n)`` stack are invertible."""
        _, singular = self._gauss_jordan_batch(matrices)
        return ~singular

    def try_invert_matrices(self, matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched inversion without raising: ``(inverses, invertible_mask)``.

        One elimination pass serves both the mask and the inverses (entries
        flagged non-invertible carry garbage and must be ignored), where
        calling :meth:`invertible_mask` followed by :meth:`invert_matrices`
        would eliminate twice.  This is the decode kernel of the batched data
        plane.
        """
        inverses, singular = self._gauss_jordan_batch(matrices)
        return inverses, ~singular

    def _gauss_jordan_batch(self, matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched inversion as the elimination of ``[A | I]``: ``(inverses, singular_mask)``.

        Entries flagged singular carry garbage in ``inverses`` and must be
        discarded by the caller.
        """
        a = np.asarray(matrices, dtype=np.uint8)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise FieldError(f"expected a stack of square matrices, got {a.shape}")
        batch, n, _ = a.shape
        aug = np.zeros((batch, n, 2 * n), dtype=np.uint8)
        aug[:, :, :n] = a
        aug[:, range(n), range(n, 2 * n)] = 1
        singular = self._eliminate(aug)
        return aug[:, :, n:].copy(), singular

    def _eliminate(self, aug: np.ndarray) -> np.ndarray:
        """Gauss–Jordan over an augmented ``(B, n, w)`` stack in place; the singular mask.

        Each member's left ``n x n`` block is reduced to the identity, which
        leaves ``A⁻¹R`` where its right ``w - n`` columns ``R`` were.  A
        member with a dead pivot column is flagged singular and keeps
        eliminating with a pivot of 1, so its garbage rows are defined too —
        and equal on both sides of the C provider.
        """
        batch, n, _ = aug.shape
        provider = self._c_loops()
        if provider is not None:
            singular_mask = np.zeros(batch, dtype=np.uint8)
            if batch and n:
                provider.gauss_jordan(aug, singular_mask, self._mul_table, self._inv)
            return singular_mask.astype(bool)
        singular = np.zeros(batch, dtype=bool)
        batch_index = np.arange(batch)
        for col in range(n):
            below = aug[:, col:, col]
            has_pivot = (below != 0).any(axis=1)
            singular |= ~has_pivot
            pivot = col + np.where(has_pivot, (below != 0).argmax(axis=1), 0)
            current = aug[batch_index, col].copy()
            aug[batch_index, col] = aug[batch_index, pivot]
            aug[batch_index, pivot] = current
            # Normalise the pivot row; singular entries may have a zero pivot,
            # so substitute 1 to keep the batched division total.
            pivots = aug[batch_index, col, col]
            safe = np.where(pivots == 0, np.uint8(1), pivots)
            aug[batch_index, col] = self.divide(aug[batch_index, col], safe[:, None])
            # Eliminate the pivot column from every other row.
            factors = aug[:, :, col].copy()
            factors[:, col] = 0
            aug ^= self.multiply(factors[:, :, None], aug[:, col][:, None, :])
        return singular

    # -- random elements ---------------------------------------------------------

    def random_elements(
        self, shape: int | tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Uniformly random field elements of the given shape."""
        return rng.integers(0, self.order, size=shape, dtype=np.uint8)

    # -- misc --------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF256(polynomial=0x{self.polynomial:03x}, generator=0x{self.generator:02x})"


#: Shared field instance used throughout the library.
GF = GF256()


def _word_bytes(rng: np.random.Generator, shape: int | tuple[int, ...]) -> np.ndarray:
    """A ``uint32`` draw of ``shape`` words, each read as its four bytes, low first."""
    words = rng.integers(0, 1 << 32, shape, np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)


def uint8_blocks(rng: np.random.Generator, lengths, count: int = 1) -> list[np.ndarray]:
    """``count`` rounds of full-range ``uint8`` calls, one per entry of ``lengths``, in one ``uint32`` draw.

    Returns one ``(count, n)`` block per length ``n``: row ``i`` of block
    ``j`` is what ``rng.integers(0, 256, lengths[j], np.uint8)`` returns
    the ``i``-th time round, and ``rng`` ends where those calls leave it.

    This is numpy's word-stream rule: a ``uint8`` call starts a fresh 32-bit
    word and reads its bytes low first, so a full-range call of ``n``
    values is the first ``n`` bytes of ``ceil(n/4)`` words and drops the
    rest of the last one.  A round is one row of words and each block a
    column range of their bytes, so no value is copied.

    >>> rng, again = np.random.default_rng(7), np.random.default_rng(7)
    >>> heads, tails = uint8_blocks(rng, (3, 6), count=2)
    >>> calls = [again.integers(0, 256, n, np.uint8) for n in (3, 6, 3, 6)]
    >>> [row.tolist() for row in (heads[0], tails[0], heads[1], tails[1])] == [
    ...     call.tolist() for call in calls]
    True
    >>> int(rng.integers(1 << 30)) == int(again.integers(1 << 30))  # the same next draw
    True
    """
    reads = [(n + 3) & ~3 for n in lengths]
    data = _word_bytes(rng, (count, sum(reads) // 4))
    blocks, start = [], 0
    for n, read in zip(lengths, reads):
        blocks.append(data[:, start : start + n])
        start += read
    return blocks


#: The value ``integers(1, 256)`` makes of an accepted (non-zero) byte: Lemire's
#: method with range 255 maps ``x`` to ``((x * 255) >> 8) + 1``.
_NONZERO_VALUE = (((np.arange(256) * 255) >> 8) + 1).astype(np.uint8)


def uint8_draws(
    rng: np.random.Generator,
    lengths,
    count: int = 1,
    nonzero: bool = False,
    redraw_zero: bool = False,
) -> np.ndarray:
    """``count`` rounds of ``uint8`` calls that may read past their words, in one ``uint32`` draw.

    Row ``i`` of the ``(count, sum(lengths))`` result is what the calls
    ``rng.integers(low, 256, n, np.uint8)`` for ``n`` in ``lengths`` return,
    back to back, the ``i``-th time round (``low`` is 1 with ``nonzero``,
    else 0), and ``rng`` ends where those calls leave it.  With
    ``redraw_zero`` a call that drew only zeros is made again, as
    ``SliceCoder.recombine`` redraws its weights.

    Each call starts a fresh word and reads its bytes low first, as in
    :func:`uint8_blocks`.  A non-zero call is Lemire's method with range
    255: a zero byte is rejected and the next read, any other byte ``x``
    gives ``((x * 255) >> 8) + 1``, so the call reads words until ``n``
    bytes are accepted.  No call reads fewer than ``ceil(n/4)`` words, so
    those are drawn for every call at once; from the first call that needs
    more (or is made again), the rest are parsed again from where it
    stopped, drawing further words only as they are read.

    >>> rng, again = np.random.default_rng(7), np.random.default_rng(7)
    >>> got = uint8_draws(rng, (3, 6), count=2, nonzero=True)
    >>> calls = [again.integers(1, 256, n, np.uint8) for n in (3, 6, 3, 6)]
    >>> bool(np.array_equal(got.reshape(-1), np.concatenate(calls)))
    True
    >>> got = uint8_draws(rng, (5, 2), redraw_zero=True)
    >>> calls = [again.integers(0, 256, n, np.uint8) for n in (5, 2)]
    >>> bool(np.array_equal(got[0], np.concatenate(calls)))
    True
    >>> int(rng.integers(1 << 30)) == int(again.integers(1 << 30))  # the same next draw
    True
    """
    lengths = np.asarray(lengths, dtype=np.intp).reshape(-1)
    calls = np.tile(lengths[lengths > 0], count)  # an empty call reads nothing
    parts: list[np.ndarray] = []
    pending = np.empty(0, dtype=np.uint8)  # bytes of words drawn but not read yet
    while calls.size:
        reads = (calls + 3) & ~3
        missing = int(reads.sum()) - pending.size
        data = np.concatenate([pending, _word_bytes(rng, missing // 4)]) if missing else pending
        # One row per call: the bytes of its words, then the next call's.
        starts = np.cumsum(reads) - reads
        column = np.arange(int(reads.max()))
        rows = data[np.minimum(starts[:, None] + column, data.size - 1)]
        if nonzero:
            accepted = (rows != 0) & (column < reads[:, None])
            seen = accepted.cumsum(axis=1)
            short = np.flatnonzero(seen[:, -1] < calls)
            take = accepted & (seen <= calls[:, None])
        else:
            take = column < calls[:, None]
            short = np.flatnonzero(~(take & (rows != 0)).any(axis=1) & redraw_zero)
        stop = int(short[0]) if short.size else calls.size
        take[stop:] = False
        values = rows[take]
        parts.append(_NONZERO_VALUE[values] if nonzero else values)
        if stop == calls.size:
            break
        rest = data[starts[stop] :]
        if nonzero:
            # Call `stop` reads on past its words: parse it byte by byte.
            need = int(calls[stop])
            while np.count_nonzero(rest) < need:
                more = -(-(need - np.count_nonzero(rest)) // 4)
                rest = np.concatenate([rest, _word_bytes(rng, more)])
            picked = np.flatnonzero(rest)[:need]
            parts.append(_NONZERO_VALUE[rest[picked]])
            pending = rest[(picked[-1] // 4 + 1) * 4 :]
            calls = calls[stop + 1 :]
        else:
            # Call `stop` drew only zeros: it is made again from the next word.
            pending = rest[reads[stop] :]
            calls = calls[stop:]
    values = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
    return values.reshape(count, int(lengths.sum()))


def active_kernel() -> str:
    """What the stacked loops of :data:`GF` run in this process.

    ``"compiled"`` when the C provider loads here (this call resolves it if
    no stacked call has yet), ``"numpy"`` otherwise —
    :func:`repro.core.gf_kernels.unavailable_reason` then says why.
    """
    return "numpy" if GF._c_loops() is None else "compiled"
