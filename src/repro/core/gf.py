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
:meth:`GF256.batched_matmul` and the batched Gauss–Jordan elimination behind
:meth:`GF256.try_invert_matrices` — run in the C provider of
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
            stack_a = np.ascontiguousarray(
                np.broadcast_to(a, (*batch_shape, m, k))
            ).reshape(batch, m, k)
            stack_b = np.ascontiguousarray(
                np.broadcast_to(b, (*batch_shape, k, n))
            ).reshape(batch, k, n)
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
        """
        a = np.asarray(a, dtype=np.uint8)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise FieldError(f"solve expects a square matrix, got {a.shape}")
        inv = self.invert_matrix(a)
        return self.matmul(inv, b)

    def invert_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Invert a square matrix over GF(2^8) via Gauss–Jordan elimination."""
        a = np.array(matrix, dtype=np.uint8, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise FieldError(f"cannot invert non-square matrix of shape {a.shape}")
        n = a.shape[0]
        aug = np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1)
        for col in range(n):
            pivot_rows = np.nonzero(aug[col:, col])[0]
            if pivot_rows.size == 0:
                raise FieldError("matrix is singular over GF(2^8)")
            pivot = pivot_rows[0] + col
            if pivot != col:
                aug[[col, pivot]] = aug[[pivot, col]]
            aug[col] = self.divide(aug[col], aug[col, col])
            others = np.arange(n) != col
            factors = aug[others, col]
            aug[others] = self.add(
                aug[others], self.multiply(factors[:, None], aug[col][None, :])
            )
        return aug[:, n:].copy()

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
        """Batched Gauss–Jordan elimination: ``(inverses, singular_mask)``.

        Entries flagged singular carry garbage in ``inverses`` and must be
        discarded by the caller.
        """
        a = np.asarray(matrices, dtype=np.uint8)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise FieldError(f"expected a stack of square matrices, got {a.shape}")
        batch, n, _ = a.shape
        aug = np.concatenate(
            [a.copy(), np.tile(np.eye(n, dtype=np.uint8), (batch, 1, 1))], axis=2
        )
        provider = self._c_loops()
        if provider is not None:
            aug = np.ascontiguousarray(aug)
            singular_mask = np.zeros(batch, dtype=np.uint8)
            if batch and n:
                provider.gauss_jordan(
                    aug, singular_mask, self._mul_table, self._inv
                )
            return aug[:, :, n:].copy(), singular_mask.astype(bool)
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
        return aug[:, :, n:].copy(), singular

    def is_invertible(self, matrix: np.ndarray) -> bool:
        """Return True iff ``matrix`` is square and full-rank over GF(2^8).

        One matrix through the stacked Gauss–Jordan of :meth:`invertible_mask`
        (C where the provider loads), not the Python loop of :meth:`rank`.
        """
        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            return False
        return bool(self.invertible_mask(matrix[None])[0])

    # -- random elements ---------------------------------------------------------

    def random_elements(
        self, shape: int | tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Uniformly random field elements of the given shape."""
        return rng.integers(0, self.order, size=shape, dtype=np.uint8)

    def random_nonzero_elements(
        self, shape: int | tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Uniformly random *non-zero* field elements of the given shape."""
        return rng.integers(1, self.order, size=shape, dtype=np.uint8)

    # -- misc --------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF256(polynomial=0x{self.polynomial:03x}, generator=0x{self.generator:02x})"


#: Shared field instance used throughout the library.
GF = GF256()


def active_kernel() -> str:
    """What the stacked loops of :data:`GF` run in this process.

    ``"compiled"`` when the C provider loads here (this call resolves it if
    no stacked call has yet), ``"numpy"`` otherwise —
    :func:`repro.core.gf_kernels.unavailable_reason` then says why.
    """
    return "numpy" if GF._c_loops() is None else "compiled"
