"""Tests for coding-matrix construction (invertible and MDS matrices)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import MatrixError
from repro.core.gf import GF
from repro.core.matrix import (
    cauchy_matrix,
    mds_matrix,
    random_invertible_matrix,
)


def test_random_invertible_matrix_is_invertible():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 5, 8):
        matrix = random_invertible_matrix(d, rng)
        assert matrix.shape == (d, d)
        assert GF.rank(matrix) == d


def test_random_invertible_rejects_bad_dimension():
    rng = np.random.default_rng(0)
    with pytest.raises(MatrixError):
        random_invertible_matrix(0, rng)


def test_cauchy_matrix_every_entry_nonzero():
    matrix = cauchy_matrix(4, 6)
    assert matrix.shape == (4, 6)
    assert np.all(matrix != 0)


def test_cauchy_matrix_too_large_raises():
    with pytest.raises(MatrixError):
        cauchy_matrix(200, 100)


def every_d_rows_independent(matrix, d):
    """Exhaustively: every ``d``-row subset of ``matrix`` has rank ``d``."""
    return all(GF.rank(matrix[list(rows)]) == d for rows in combinations(range(len(matrix)), d))


@given(d=st.integers(min_value=1, max_value=4), extra=st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_mds_matrix_every_d_rows_independent(d, extra):
    rng = np.random.default_rng(d * 10 + extra)
    matrix = mds_matrix(d + extra, d, rng=rng)
    assert matrix.shape == (d + extra, d)
    assert every_d_rows_independent(matrix, d)


def test_systematic_mds_has_identity_prefix():
    matrix = mds_matrix(5, 3, systematic=True)
    assert np.array_equal(matrix[:3], np.eye(3, dtype=np.uint8))
    assert every_d_rows_independent(matrix, 3)


def test_mds_matrix_rejects_d_prime_below_d():
    with pytest.raises(MatrixError):
        mds_matrix(2, 3)


def test_submatrix_inverse_recovers_selected_rows():
    rng = np.random.default_rng(9)
    matrix = mds_matrix(6, 3, rng=rng)
    rows = [1, 4, 5]
    inverse = GF.invert_matrix(matrix[rows])
    product = GF.matmul(inverse, matrix[rows])
    assert np.array_equal(product, np.eye(3, dtype=np.uint8))
