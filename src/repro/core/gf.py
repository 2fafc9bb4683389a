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

Every :class:`GF256` instance has a *kernel* — ``"numpy"`` (the reference,
always available) or ``"compiled"`` (dispatches the hot loops to
:mod:`repro.core.gf_kernels`, bit-identical by construction).  The
module-level helpers :func:`field_for_kernel`, :func:`use_kernel` and
:func:`default_field` let callers select the kernel for a whole call tree
(context-locally, so concurrent runs do not interfere) without threading a
field instance through every constructor.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Iterable, Iterator

import numpy as np

from . import gf_kernels
from .errors import FieldError, KernelUnavailableError

#: The AES / Rijndael reduction polynomial x^8 + x^4 + x^3 + x + 1.
DEFAULT_POLYNOMIAL = 0x11B

#: Generator of the multiplicative group under the default polynomial.
DEFAULT_GENERATOR = 0x03

#: Field order.
ORDER = 256

#: The kernel axis every :class:`GF256` instance carries.
KERNELS = ("numpy", "compiled")


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

    ``kernel`` selects the implementation of the three hot loops
    (:meth:`multiply`, :meth:`batched_matmul` and the batched Gauss–Jordan
    elimination behind :meth:`try_invert_matrices`): ``"numpy"`` is the
    reference, ``"compiled"`` dispatches to :mod:`repro.core.gf_kernels`
    and raises :class:`~repro.core.errors.KernelUnavailableError` at
    construction when no compiled provider can load.  Results are
    bit-identical across kernels by construction.
    """

    def __init__(
        self,
        polynomial: int = DEFAULT_POLYNOMIAL,
        generator: int = DEFAULT_GENERATOR,
        kernel: str = "numpy",
    ) -> None:
        if kernel not in KERNELS:
            raise FieldError(
                f"unknown kernel {kernel!r}; expected one of {', '.join(KERNELS)}"
            )
        self.polynomial = polynomial
        self.generator = generator
        self.order = ORDER
        self.kernel = kernel
        self._exp, self._log = _build_tables(polynomial, generator)
        # Precompute the full inverse table: inv[0] stays 0 and is guarded.
        inv = np.zeros(256, dtype=np.uint8)
        nonzero = np.arange(1, 256)
        inv[1:] = self._exp[255 - self._log[nonzero]]
        self._inv = inv
        self._provider: gf_kernels.KernelProvider | None = None
        self._mul_table: np.ndarray | None = None
        if kernel == "compiled":
            self._provider = gf_kernels.load_provider()
            self._mul_table = self._build_mul_table()

    def _build_mul_table(self) -> np.ndarray:
        """The flattened 256x256 product table the compiled providers index."""
        elements = np.arange(256, dtype=np.uint8)
        table = self._numpy_multiply(elements[:, None], elements[None, :])
        return np.ascontiguousarray(table.reshape(-1), dtype=np.uint8)

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
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if self._provider is not None:
            return self._compiled_multiply(a, b)
        return self._numpy_multiply(a, b)

    def _numpy_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # uint8 operands index the int16 log table directly; the int16 sum
        # (at most 508) indexes the 512-entry exp table without a modulo.
        result = self._exp[self._log[a] + self._log[b]]
        zero = (a == 0) | (b == 0)
        return np.where(zero, np.uint8(0), result).astype(np.uint8)

    def _compiled_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(a.shape, dtype=np.uint8)
        if out.size:
            self._provider.multiply(
                np.ascontiguousarray(a).reshape(-1),
                np.ascontiguousarray(b).reshape(-1),
                out.reshape(-1),
                self._mul_table,
            )
        return out

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

    def power(self, a, n: int) -> np.ndarray:
        """Raise each element of ``a`` to the integer power ``n``."""
        a = np.asarray(a, dtype=np.uint8)
        if n == 0:
            return np.ones_like(a)
        if n < 0:
            return self.power(self.inverse(a), -n)
        logs = self._log[a].astype(np.int64) * n % 255
        result = self._exp[logs]
        return np.where(a == 0, np.uint8(0), result).astype(np.uint8)

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
        if self._provider is not None:
            return self._compiled_batched_matmul(a, b)
        # products[..., i, k, j] = a[..., i, k] * b[..., k, j]; XOR-reduce over k.
        products = self._numpy_multiply(a[..., :, :, None], b[..., None, :, :])
        return np.bitwise_xor.reduce(products, axis=-2)

    def _compiled_batched_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
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
            self._provider.batched_matmul(
                stack_a, stack_b, out.reshape(batch, m, n), self._mul_table
            )
        elif out.size:
            out[...] = 0  # XOR-reduce over an empty k axis is the identity
        return out

    def mat_vec(self, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Matrix–vector product; thin convenience wrapper over :meth:`matmul`."""
        return self.matmul(a, np.asarray(v, dtype=np.uint8).reshape(-1))

    def dot(self, u: np.ndarray, v: np.ndarray) -> int:
        """Inner product of two equal-length vectors."""
        u = np.asarray(u, dtype=np.uint8).reshape(-1)
        v = np.asarray(v, dtype=np.uint8).reshape(-1)
        if u.shape != v.shape:
            raise FieldError(f"dot shape mismatch: {u.shape} vs {v.shape}")
        return int(np.bitwise_xor.reduce(self.multiply(u, v)))

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
        if self._provider is not None:
            aug = np.ascontiguousarray(aug)
            singular_mask = np.zeros(batch, dtype=np.uint8)
            if batch and n:
                self._provider.gauss_jordan(
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
        """Return True iff ``matrix`` is square and full-rank over GF(2^8)."""
        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            return False
        return self.rank(matrix) == matrix.shape[0]

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

    def validate_elements(self, values: Iterable[int]) -> None:
        """Raise :class:`FieldError` unless every value is a valid element."""
        for v in values:
            if not 0 <= int(v) < self.order:
                raise FieldError(f"{v!r} is not an element of GF(2^8)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GF256(polynomial=0x{self.polynomial:03x}, "
            f"generator=0x{self.generator:02x}, kernel={self.kernel!r})"
        )


#: Shared field instance used throughout the library.
GF = GF256()

_FIELDS_BY_KERNEL: dict[str, GF256] = {"numpy": GF}

#: Kernel selection used by :func:`default_field`.  A ContextVar so
#: concurrent runs in one process (threads, interleaved async tasks) can
#: each hold a different override without racing each other.
_ACTIVE_KERNEL: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_gf_active_kernel", default="numpy"
)


def field_for_kernel(kernel: str) -> GF256:
    """The shared field instance for ``kernel`` (``"numpy"`` returns :data:`GF`).

    Raises :class:`~repro.core.errors.KernelUnavailableError` when
    ``kernel="compiled"`` and no compiled provider can load.
    """
    if kernel not in KERNELS:
        raise FieldError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNELS)}"
        )
    field = _FIELDS_BY_KERNEL.get(kernel)
    if field is None:
        field = GF256(kernel=kernel)
        _FIELDS_BY_KERNEL[kernel] = field
    return field


def available_kernels() -> tuple[str, ...]:
    """The kernels that can actually load on this host."""
    names = ["numpy"]
    if gf_kernels.compiled_available():
        names.append("compiled")
    return tuple(names)


def active_kernel() -> str:
    """The kernel :func:`default_field` currently resolves to."""
    return _ACTIVE_KERNEL.get()


@contextlib.contextmanager
def use_kernel(kernel: str | None) -> Iterator[None]:
    """Select the default kernel for the duration of the block.

    ``None`` is a no-op (callers thread an optional kernel through
    unconditionally).  The experiment runner wraps every trial execution in
    this context, so experiment code that builds coders with default
    arguments picks up the requested kernel without any plumbing.  The
    override is context-local (a :class:`~contextvars.ContextVar`), so
    concurrent runs in threads or async tasks do not see each other's
    kernel.
    """
    if kernel is None:
        yield
        return
    field_for_kernel(kernel)  # validate + fail fast before running the block
    token = _ACTIVE_KERNEL.set(kernel)
    try:
        yield
    finally:
        _ACTIVE_KERNEL.reset(token)


def default_field() -> GF256:
    """The shared field for the active kernel (:data:`GF` unless overridden)."""
    return field_for_kernel(_ACTIVE_KERNEL.get())


# Re-exported for convenience: callers selecting kernels catch this.
__all__ = [
    "GF",
    "GF256",
    "KERNELS",
    "KernelUnavailableError",
    "active_kernel",
    "available_kernels",
    "default_field",
    "field_for_kernel",
    "use_kernel",
]
