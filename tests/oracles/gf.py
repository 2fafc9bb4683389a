"""Scalar references for GF(2^8): inversion one pivot at a time, draws one call at a time.

Gauss–Jordan elimination written row by row over the field's element-wise
operations, as a textbook states it.  The shipped ``GF256.invert_matrix``,
``invert_matrices``, ``try_invert_matrices`` and ``solve`` all run one
batched elimination (numpy, or its C mirror), and the property tests hold
them to this on every invertible matrix.

>>> from repro.core.gf import GF
>>> inverse = invert_matrix(GF, [[1, 2], [3, 4]])
>>> inverse.tolist()
[[2, 1], [140, 141]]
>>> GF.matmul([[1, 2], [3, 4]], inverse).tolist()
[[1, 0], [0, 1]]

:func:`uint8_calls` is one ``rng.integers(low, 256, n, np.uint8)`` call per
length, the stream ``repro.core.gf.uint8_draws`` reproduces in one
``uint32`` draw; it also counts the calls that took a rare path.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.errors import FieldError
from repro.core.gf import GF256


def invert_matrix(field: GF256, matrix) -> np.ndarray:
    """The inverse of a square matrix over ``field``; raises on a singular one."""
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
        aug[col] = field.divide(aug[col], aug[col, col])
        others = np.arange(n) != col
        factors = aug[others, col]
        aug[others] = field.add(
            aug[others], field.multiply(factors[:, None], aug[col][None, :])
        )
    return aug[:, n:].copy()


def random_invertible_matrix(field: GF256, d: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One rejection loop of ``d x d`` ``uint8`` draws: ``(matrix, singular draws skipped)``."""
    skipped = 0
    while True:
        candidate = field.random_elements((d, d), rng)
        if field.rank(candidate) == d:
            return candidate, skipped
        skipped += 1


def uint8_calls(
    rng: np.random.Generator, lengths, low: int = 0, redraw_zero: bool = False
) -> tuple[np.ndarray, int, int]:
    """One ``uint8`` call per length: ``(values back to back, long calls, redraws)``.

    With ``redraw_zero`` a call that drew only zeros is made again, as
    ``SliceCoder.recombine`` does.  A *long* call read more generator words
    than ``ceil(n / 4)``: a twin of ``rng`` that draws that many ``uint32``
    words ends in another state.
    """
    values, long_calls, redraws = [], 0, 0
    for n in lengths:
        twin = copy.deepcopy(rng)
        twin.integers(0, 1 << 32, -(-n // 4), np.uint32)
        drawn = rng.integers(low, 256, n, np.uint8)
        long_calls += twin.bit_generator.state != rng.bit_generator.state
        while redraw_zero and not drawn.any():
            redraws += 1
            drawn = rng.integers(low, 256, n, np.uint8)
        values.append(drawn)
    return np.concatenate(values or [np.empty(0, np.uint8)]), long_calls, redraws
