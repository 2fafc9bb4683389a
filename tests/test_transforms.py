"""Tests for the per-hop anti-pattern transforms (§9.4a)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coder import SliceCoder
from repro.core.errors import CodingError
from repro.core.transforms import AffineTransform, build_transform_chain


def test_identity_transform_is_noop():
    data = np.arange(256, dtype=np.uint8)
    assert np.array_equal(AffineTransform.identity().apply(data), data)


def test_invalid_parameters_rejected():
    with pytest.raises(CodingError):
        AffineTransform(multiplier=0, mask=1)
    with pytest.raises(CodingError):
        AffineTransform(multiplier=1, mask=300)


@given(a=st.integers(min_value=1, max_value=255), b=st.integers(min_value=0, max_value=255))
@settings(max_examples=100, deadline=None)
def test_transform_invert_roundtrip(a, b):
    transform = AffineTransform(multiplier=a, mask=b)
    data = np.arange(256, dtype=np.uint8)
    roundtrip = transform.invert().apply(transform.apply(data))
    assert np.array_equal(roundtrip, data)


@given(
    a1=st.integers(min_value=1, max_value=255),
    b1=st.integers(min_value=0, max_value=255),
    a2=st.integers(min_value=1, max_value=255),
    b2=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=100, deadline=None)
def test_compose_matches_sequential_application(a1, b1, a2, b2):
    inner = AffineTransform(a1, b1)
    outer = AffineTransform(a2, b2)
    data = np.arange(64, dtype=np.uint8)
    composed = outer.compose(inner)
    assert np.array_equal(composed.apply(data), outer.apply(inner.apply(data)))


def test_chain_peels_back_to_original():
    rng = np.random.default_rng(5)
    for hops in (0, 1, 3, 6):
        combined, inverses = build_transform_chain(hops, rng)
        assert len(inverses) == hops
        data = np.arange(100, dtype=np.uint8)
        transformed = combined.apply(data)
        for inverse in inverses:
            transformed = inverse.apply(transformed)
        assert np.array_equal(transformed, data)


def test_transformed_slice_differs_at_every_hop():
    # The whole point of §9.4a: an injected bit pattern must not reappear.
    rng = np.random.default_rng(6)
    coder = SliceCoder(d=2)
    block = coder.encode(b"pattern" * 10, rng)[0]
    combined, inverses = build_transform_chain(3, rng)
    seen = {bytes(block.payload.tobytes())}
    current = combined.apply_block(block)
    for inverse in inverses:
        payload = bytes(current.payload.tobytes())
        assert payload not in seen
        seen.add(payload)
        current = inverse.apply_block(current)
    assert np.array_equal(current.payload, block.payload)


def test_negative_hop_count_rejected():
    with pytest.raises(CodingError):
        build_transform_chain(-1, np.random.default_rng(0))
