"""Unit and property tests for GF(2^8) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FieldError
from repro.core.gf import GF, GF256

elements = st.integers(min_value=0, max_value=255)
nonzero_elements = st.integers(min_value=1, max_value=255)


def test_add_is_xor():
    assert int(GF.add(0x53, 0xCA)) == 0x53 ^ 0xCA


def test_add_identity_and_self_inverse():
    values = np.arange(256, dtype=np.uint8)
    assert np.array_equal(GF.add(values, 0), values)
    assert np.array_equal(GF.add(values, values), np.zeros(256, dtype=np.uint8))


def test_multiply_by_zero_and_one():
    values = np.arange(256, dtype=np.uint8)
    assert np.array_equal(GF.multiply(values, 0), np.zeros(256, dtype=np.uint8))
    assert np.array_equal(GF.multiply(values, 1), values)


def test_known_aes_product():
    # 0x53 * 0xCA = 0x01 under the AES polynomial.
    assert int(GF.multiply(0x53, 0xCA)) == 0x01


def test_inverse_of_zero_raises():
    with pytest.raises(FieldError):
        GF.inverse(0)


def test_divide_by_zero_raises():
    with pytest.raises(FieldError):
        GF.divide(5, 0)


def test_inverse_table_consistency():
    values = np.arange(1, 256, dtype=np.uint8)
    products = GF.multiply(values, GF.inverse(values))
    assert np.all(products == 1)


@given(a=elements, b=elements, c=elements)
@settings(max_examples=200, deadline=None)
def test_multiplication_is_commutative_and_distributive(a, b, c):
    assert int(GF.multiply(a, b)) == int(GF.multiply(b, a))
    left = int(GF.multiply(a, GF.add(b, c)))
    right = int(GF.add(GF.multiply(a, b), GF.multiply(a, c)))
    assert left == right


@given(a=elements, b=nonzero_elements)
@settings(max_examples=200, deadline=None)
def test_division_inverts_multiplication(a, b):
    assert int(GF.divide(GF.multiply(a, b), b)) == a


def test_matmul_against_manual_dot():
    rng = np.random.default_rng(0)
    a = GF.random_elements((3, 4), rng)
    b = GF.random_elements((4, 2), rng)
    product = GF.matmul(a, b)
    for i in range(3):
        for j in range(2):
            assert product[i, j] == np.bitwise_xor.reduce(GF.multiply(a[i], b[:, j]))


def test_matmul_shape_mismatch_raises():
    with pytest.raises(FieldError):
        GF.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))


def test_invert_matrix_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        matrix = GF.random_elements((4, 4), rng)
        if GF.rank(matrix) < 4:
            continue
        inverse = GF.invert_matrix(matrix)
        assert np.array_equal(GF.matmul(matrix, inverse), np.eye(4, dtype=np.uint8))


def test_invert_singular_matrix_raises():
    singular = np.array([[1, 2], [2, 4]], dtype=np.uint8)
    # Row 2 = 2 * row 1 over GF(2^8): [2, 4] == 2*[1, 2].
    assert GF.rank(singular) == 1
    with pytest.raises(FieldError):
        GF.invert_matrix(singular)


def test_rank_of_identity_and_zero():
    assert GF.rank(np.eye(5, dtype=np.uint8)) == 5
    assert GF.rank(np.zeros((3, 4), dtype=np.uint8)) == 0


def test_solve_recovers_vector():
    rng = np.random.default_rng(2)
    matrix = GF.random_elements((5, 5), rng)
    while GF.rank(matrix) < 5:
        matrix = GF.random_elements((5, 5), rng)
    x = GF.random_elements(5, rng)
    b = GF.matmul(matrix, x)
    assert np.array_equal(GF.solve(matrix, b), x)


def test_bad_generator_rejected():
    # Under the AES polynomial 0x02 has multiplicative order 51, so it only
    # generates a subgroup and the table construction must refuse it.
    with pytest.raises(FieldError):
        GF256(generator=0x02, polynomial=0x11B)
