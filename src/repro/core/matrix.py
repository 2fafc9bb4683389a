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
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixError
from .gf import GF, GF256


def random_invertible_matrix(
    d: int, rng: np.random.Generator, field: GF256 = GF
) -> np.ndarray:
    """Return a uniformly random invertible ``d x d`` matrix over GF(2^8).

    Sampling is rejection-based: random matrices over GF(2^8) are invertible
    with probability > 0.99, so this loop nearly always succeeds on the first
    draw.
    """
    if d < 1:
        raise MatrixError(f"matrix dimension must be >= 1, got {d}")
    for _ in range(64):
        candidate = field.random_elements((d, d), rng)
        if field.is_invertible(candidate):
            return candidate
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
    slices equal to the input vector (useful for debugging and for the
    information-theoretic mode where inputs are already randomised).

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
    if d_prime == d and not field.is_invertible(matrix):  # pragma: no cover - defensive
        raise MatrixError("generated square MDS matrix is singular")
    return matrix


def _scale_rows_cols(
    matrix: np.ndarray, rng: np.random.Generator, field: GF256
) -> np.ndarray:
    """Scale each row and column by a random non-zero field element."""
    rows, cols = matrix.shape
    row_scale = field.random_nonzero_elements(rows, rng)
    col_scale = field.random_nonzero_elements(cols, rng)
    scaled = field.multiply(matrix, row_scale[:, None])
    return field.multiply(scaled, col_scale[None, :])


def verify_mds(matrix: np.ndarray, d: int, field: GF256 = GF) -> bool:
    """Exhaustively check that every ``d``-row subset of ``matrix`` is full rank.

    Exponential in the number of rows; intended for tests and small ``d'``.
    """
    from itertools import combinations

    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.shape[1] != d:
        raise MatrixError(f"matrix has {matrix.shape[1]} columns, expected {d}")
    for subset in combinations(range(matrix.shape[0]), d):
        if field.rank(matrix[list(subset)]) != d:
            return False
    return True


def submatrix_inverse(
    matrix: np.ndarray, rows: list[int] | np.ndarray, field: GF256 = GF
) -> np.ndarray:
    """Invert the square submatrix of ``matrix`` formed by the given rows.

    Raises :class:`MatrixError` if the selected rows do not form a square,
    invertible matrix — decoders use this to recover a message from any ``d``
    of the ``d'`` redundant slices.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    selected = matrix[list(rows)]
    if selected.shape[0] != selected.shape[1]:
        raise MatrixError(
            f"selected {selected.shape[0]} rows from a matrix with "
            f"{selected.shape[1]} columns; need exactly {selected.shape[1]}"
        )
    try:
        return field.invert_matrix(selected)
    except Exception as exc:
        raise MatrixError(f"selected rows are not linearly independent: {exc}") from exc
