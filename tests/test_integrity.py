"""Tests for the integrity framing and churn-tolerant robust decoding."""

import numpy as np
import pytest

from repro.core.coder import SliceCoder
from repro.core.errors import CodingError, InsufficientSlicesError
from repro.core.integrity import robust_decode, unwrap, verify, wrap
from repro.core.packet import random_padding_slices


def test_wrap_unwrap_roundtrip():
    payload = b"some routing information"
    assert unwrap(wrap(payload)) == payload


def test_unwrap_rejects_corruption():
    framed = bytearray(wrap(b"data"))
    framed[-1] ^= 0xFF
    with pytest.raises(CodingError):
        unwrap(bytes(framed))


def test_unwrap_rejects_bad_magic_and_truncation():
    framed = wrap(b"data")
    with pytest.raises(CodingError):
        unwrap(b"XXXX" + framed[4:])
    with pytest.raises(CodingError):
        unwrap(framed[:8])


def test_verify_is_boolean_wrapper():
    assert verify(wrap(b"ok"))
    assert not verify(b"garbage")


def test_unwrap_ignores_trailing_padding():
    framed = wrap(b"padded payload") + b"\x00" * 32
    assert unwrap(framed) == b"padded payload"


def test_robust_decode_clean_case():
    rng = np.random.default_rng(0)
    coder = SliceCoder(d=3)
    blocks = coder.encode(wrap(b"hello"), rng)
    assert robust_decode(coder, blocks) == b"hello"


def test_robust_decode_survives_garbage_slices():
    rng = np.random.default_rng(1)
    coder = SliceCoder(d=2, d_prime=3)
    blocks = coder.encode(wrap(b"churn happened"), rng)
    payload_len = int(blocks[0].payload.shape[0])
    (garbage,) = random_padding_slices(1, 2, payload_len, rng)
    mixed = [blocks[0], garbage, blocks[2]]
    assert robust_decode(coder, mixed) == b"churn happened"


def test_robust_decode_insufficient_slices():
    rng = np.random.default_rng(2)
    coder = SliceCoder(d=3)
    blocks = coder.encode(wrap(b"too few"), rng)
    with pytest.raises(InsufficientSlicesError):
        robust_decode(coder, blocks[:2])


def test_robust_decode_all_garbage_fails():
    rng = np.random.default_rng(3)
    coder = SliceCoder(d=2)
    garbage = random_padding_slices(4, 2, 40, rng)
    with pytest.raises(InsufficientSlicesError):
        robust_decode(coder, garbage)
