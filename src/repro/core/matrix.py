"""Coding-matrix construction over GF(2^8).

The paper uses two kinds of matrices:

* an invertible ``d x d`` matrix ``A`` used to randomise a message before
  splitting it into ``d`` slices (§4.1, Eq. 3); and
* a ``d' x d`` matrix ``A'`` (``d' > d``) of rank ``d`` whose *every* set of
  ``d`` rows is linearly independent, used to add churn redundancy
  (§4.4, Eq. 4) — i.e. an MDS generator matrix.

This module builds both.  For the MDS case we use Cauchy matrices, whose
square submatrices are all invertible by construction, optionally stacked
under an identity block (a "systematic" layout) when callers want the first
``d`` slices to carry the plain randomised message.

One flow's square coding matrices come from one draw
(:func:`random_invertible_matrices`), stream-identical to one rejection
loop per matrix.  One ``d x d`` candidate is one full-range ``uint8`` call
of ``d²`` values, so ``count`` candidates are one
:func:`~repro.core.gf.uint8_blocks` round each (numpy's word-stream rule is
written down there).  The per-matrix loop gives matrix ``j`` the ``j``-th
invertible candidate of that sequence, skipping the singular ones it would
redraw; so does the run, drawing more rounds only for the matrices still
missing one.

One run of four against four rejection loops of ``uint8`` draws:

>>> rng, again = np.random.default_rng(5), np.random.default_rng(5)
>>> run = random_invertible_matrices(3, 4, rng)
>>> singles = []
>>> while len(singles) < 4:
...     candidate = GF.random_elements((3, 3), again)
...     if GF.rank(candidate) == 3:
...         singles.append(candidate)
>>> bool(np.array_equal(run, singles))
True
>>> int(rng.integers(1 << 30)) == int(again.integers(1 << 30))  # the same next draw
True
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixError
from .gf import GF, GF256, uint8_blocks


def random_invertible_matrix(
    d: int, rng: np.random.Generator, field: GF256 = GF
) -> np.ndarray:
    """Return a uniformly random invertible ``d x d`` matrix over GF(2^8).

    Sampling is rejection-based: random matrices over GF(2^8) are invertible
    with probability > 0.99, so one draw nearly always suffices.  This is
    the ``count = 1`` case of :func:`random_invertible_matrices`.
    """
    return random_invertible_matrices(d, 1, rng, field)[0]


def random_invertible_matrices(
    d: int, count: int, rng: np.random.Generator, field: GF256 = GF
) -> np.ndarray:
    """``count`` successive :func:`random_invertible_matrix` draws as a ``(count, d, d)`` stack.

    Stream-identical to the loop of single draws (module docstring): the
    candidates are the rows of one ``uint8_blocks`` call, one batched
    elimination checks them all, and matrix ``j`` is the ``j``-th
    invertible one.
    """
    if d < 1:
        raise MatrixError(f"matrix dimension must be >= 1, got {d}")
    if count < 0:
        raise MatrixError(f"matrix count must be >= 0, got {count}")
    matrices = np.empty((count, d, d), dtype=np.uint8)
    filled = 0
    for _ in range(64):
        if filled == count:
            return matrices
        (candidates,) = uint8_blocks(rng, (d * d,), count - filled)
        candidates = candidates.reshape(-1, d, d)
        accepted = candidates[field.invertible_mask(candidates)]
        matrices[filled : filled + len(accepted)] = accepted
        filled += len(accepted)
    raise MatrixError("failed to sample an invertible matrix (should be unreachable)")


def cauchy_matrix(rows: int, cols: int, field: GF256 = GF) -> np.ndarray:
    """Build a ``rows x cols`` Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)``.

    ``x_i`` and ``y_j`` are distinct field elements, which guarantees that
    every square submatrix is invertible.  GF(2^8) has 256 elements, so
    ``rows + cols`` must not exceed 256.
    """
    if rows < 1 or cols < 1:
        raise MatrixError("Cauchy matrix dimensions must be positive")
    if rows + cols > field.order:
        raise MatrixError(
            f"cannot build a {rows}x{cols} Cauchy matrix over GF({field.order}): "
            f"needs {rows + cols} distinct evaluation points"
        )
    xs = np.arange(rows, dtype=np.uint8)
    ys = np.arange(rows, rows + cols, dtype=np.uint8)
    sums = field.add(xs[:, None], ys[None, :])
    return field.inverse(sums)


def mds_matrix(
    d_prime: int,
    d: int,
    rng: np.random.Generator | None = None,
    field: GF256 = GF,
    systematic: bool = False,
) -> np.ndarray:
    """Return a ``d' x d`` matrix in which any ``d`` rows are independent.

    This is the redundancy matrix ``A'`` of §4.4.  When ``systematic`` is
    True the top ``d x d`` block is the identity, which keeps the first ``d``
    slices equal to the input vector.

    When ``rng`` is given, the rows and columns of the underlying Cauchy
    matrix are scaled by random non-zero elements.  Scaling rows/columns of a
    Cauchy matrix preserves the MDS property while decorrelating repeated
    graph setups from one another.
    """
    if d < 1:
        raise MatrixError(f"d must be >= 1, got {d}")
    if d_prime < d:
        raise MatrixError(f"d' ({d_prime}) must be >= d ({d})")
    if systematic:
        if d_prime == d:
            return np.eye(d, dtype=np.uint8)
        parity = cauchy_matrix(d_prime - d, d, field=field)
        if rng is not None:
            parity = _scale_rows_cols(parity, rng, field)
        return np.concatenate([np.eye(d, dtype=np.uint8), parity], axis=0)
    matrix = cauchy_matrix(d_prime, d, field=field)
    if rng is not None:
        matrix = _scale_rows_cols(matrix, rng, field)
    if d_prime == d and field.rank(matrix) < d:  # pragma: no cover - defensive
        raise MatrixError("generated square MDS matrix is singular")
    return matrix


def _scale_rows_cols(
    matrix: np.ndarray, rng: np.random.Generator, field: GF256
) -> np.ndarray:
    """Scale each row and column by a random non-zero field element."""
    rows, cols = matrix.shape
    row_scale = rng.integers(1, field.order, rows, dtype=np.uint8)
    col_scale = rng.integers(1, field.order, cols, dtype=np.uint8)
    scaled = field.multiply(matrix, row_scale[:, None])
    return field.multiply(scaled, col_scale[None, :])

