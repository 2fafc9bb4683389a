"""Tests for message slicing, decoding, redundancy and network coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coder import CodedBlock, SliceCoder
from repro.core.errors import CodingError, InsufficientSlicesError


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def test_roundtrip_without_redundancy():
    coder = SliceCoder(d=3)
    message = b"Let's meet at 5pm"
    blocks = coder.encode(message, rng_for(1))
    assert len(blocks) == 3
    assert coder.decode(blocks) == message


def test_roundtrip_empty_message():
    coder = SliceCoder(d=2)
    blocks = coder.encode(b"", rng_for(2))
    assert coder.decode(blocks) == b""


@given(
    data=st.binary(min_size=0, max_size=400),
    d=st.integers(min_value=1, max_value=6),
    extra=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(data, d, extra):
    coder = SliceCoder(d=d, d_prime=d + extra)
    blocks = coder.encode(data, rng_for(len(data) + d))
    assert coder.decode(blocks) == data


def test_any_d_of_d_prime_blocks_decode():
    coder = SliceCoder(d=2, d_prime=4)
    message = b"redundancy means any 2 of 4 work"
    blocks = coder.encode(message, rng_for(3))
    from itertools import combinations

    for subset in combinations(blocks, 2):
        assert coder.decode(list(subset)) == message


def test_fewer_than_d_blocks_raises():
    coder = SliceCoder(d=3)
    blocks = coder.encode(b"secret", rng_for(4))
    with pytest.raises(InsufficientSlicesError):
        coder.decode(blocks[:2])


def test_partial_blocks_reveal_nothing_about_missing_dimension():
    # pi-security sanity check: with d-1 blocks the constraint system is
    # underdetermined — for any candidate value of the missing piece there is
    # a consistent solution, so the decoder must refuse rather than guess.
    coder = SliceCoder(d=2)
    blocks = coder.encode(b"AB", rng_for(5))
    assert not coder.can_decode(blocks[:1])
    assert coder.can_decode(blocks)


def test_mismatched_split_factor_raises():
    coder2 = SliceCoder(d=2)
    coder3 = SliceCoder(d=3)
    blocks = coder3.encode(b"hello", rng_for(6))
    with pytest.raises(CodingError):
        coder2.decode(blocks)


def test_inconsistent_payload_lengths_raise():
    coder = SliceCoder(d=2)
    blocks = coder.encode(b"hello world", rng_for(7))
    truncated = CodedBlock(blocks[1].coefficients, blocks[1].payload[:-1])
    with pytest.raises(CodingError):
        coder.decode([blocks[0], truncated])


def test_recombine_produces_useful_replacement_blocks():
    coder = SliceCoder(d=3, d_prime=5)
    message = b"network coding regenerates lost redundancy"
    blocks = coder.encode(message, rng_for(8))
    survivors = blocks[:3]
    regenerated = coder.regenerate(survivors, count=2, rng=rng_for(9))
    # Decode using one original and the regenerated blocks only.
    mixture = [survivors[0]] + regenerated
    assert coder.decode(mixture) == message


def test_recombine_rejects_empty_input():
    coder = SliceCoder(d=2)
    with pytest.raises(CodingError):
        coder.recombine([], rng_for(10))


def test_coded_block_serialization_roundtrip():
    coder = SliceCoder(d=4)
    block = coder.encode(b"serialize me", rng_for(11))[2]
    parsed = CodedBlock.from_bytes(block.to_bytes(), d=4, index=2)
    assert np.array_equal(parsed.coefficients, block.coefficients)
    assert np.array_equal(parsed.payload, block.payload)


def test_coded_block_keeps_uint8_rows_and_normalises_the_rest():
    """A 1-D ``uint8`` array — a row view of a coded stack — is kept as the
    very same object; a list, a 2-D array or another dtype is normalised."""
    stack = np.arange(24, dtype=np.uint8).reshape(2, 12)
    coefficients, payload = stack[0, :3], stack[1, 3:]
    block = CodedBlock(coefficients, payload, 1)
    assert block.coefficients is coefficients and block.payload is payload
    for raw in ([0, 1, 2], np.array([[0, 1, 2]]), np.array([0, 1, 2], dtype=np.int64)):
        block = CodedBlock(raw, stack[0, :2].reshape(1, 2))
        assert block.coefficients.dtype == np.uint8 and block.coefficients.shape == (3,)
        assert block.coefficients.tolist() == [0, 1, 2]
        assert block.payload.shape == (2,) and block.payload.tolist() == [0, 1]
        assert block.size_bytes() == 5


def test_coded_block_from_short_bytes_raises():
    with pytest.raises(CodingError):
        CodedBlock.from_bytes(b"\x01", d=4)


def test_invalid_coder_parameters():
    with pytest.raises(CodingError):
        SliceCoder(d=0)
    with pytest.raises(CodingError):
        SliceCoder(d=3, d_prime=2)


def test_encode_with_explicit_matrix_shape_check():
    coder = SliceCoder(d=2)
    with pytest.raises(CodingError):
        coder.encode(b"x", rng_for(12), matrix=np.eye(3, dtype=np.uint8))


