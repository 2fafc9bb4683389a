"""Tests for the crypto substrates: keystream cipher, keys, PK cost model."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import distinct_key_pairs, payload_blobs

from repro.core.errors import ProtocolError
from repro.crypto.keys import KeyMaterial, generate_flow_id, generate_key, generate_nonce
from repro.crypto.public_key import PublicKeyCostModel, SimulatedKeyPair
from repro.crypto.symmetric import NONCE_SIZE, StreamCipher, decrypt, encrypt


def test_stream_cipher_roundtrip():
    cipher = StreamCipher(b"k" * 16)
    nonce = b"\x01" * NONCE_SIZE
    plaintext = b"the quick brown fox" * 10
    ciphertext = cipher.encrypt(plaintext, nonce)
    assert ciphertext != plaintext
    assert cipher.decrypt(ciphertext, nonce) == plaintext


def test_stream_cipher_nonce_separates_keystreams():
    cipher = StreamCipher(b"key")
    plaintext = b"\x00" * 64
    a = cipher.encrypt(plaintext, b"\x00" * 8)
    b = cipher.encrypt(plaintext, b"\x01" + b"\x00" * 7)
    assert a != b


def test_stream_cipher_key_separates_keystreams():
    plaintext = b"\x00" * 64
    nonce = b"\x07" * 8
    assert encrypt(b"key-a", plaintext, nonce) != encrypt(b"key-b", plaintext, nonce)
    assert decrypt(b"key-a", encrypt(b"key-a", plaintext, nonce), nonce) == plaintext


def test_stream_cipher_rejects_bad_inputs():
    with pytest.raises(ProtocolError):
        StreamCipher(b"")
    # key || nonce has one parse only because the nonce width is fixed:
    # (b"ab", b"c" * 8) and (b"abc", b"c" * 7) would otherwise share a stream.
    cipher = StreamCipher(b"abc")
    for nonce in (b"", b"short", b"c" * (NONCE_SIZE - 1), b"c" * (NONCE_SIZE + 1)):
        for call in (
            lambda: cipher.keystream(nonce, 16),
            lambda: cipher.encrypt(b"data", nonce),
            lambda: cipher.decrypt(b"data", nonce),
        ):
            with pytest.raises(ProtocolError, match=f"nonce must be {NONCE_SIZE} bytes"):
                call()
    with pytest.raises(ProtocolError, match="non-negative, got -1"):
        cipher.keystream(b"\x00" * NONCE_SIZE, -1)


@pytest.mark.parametrize("key", [b"k", b"a considerably longer key than a digest is wide"])
def test_keystream_known_answer_is_one_shake256_call(key):
    # The expectation is computed here, not read from the module: a second
    # construction cannot come back unnoticed.
    nonce = bytes(range(NONCE_SIZE))
    for length in (0, 1, 32, 33, 1500):
        expected = hashlib.shake_256(key + nonce).hexdigest(length)
        assert StreamCipher(key).keystream(nonce, length).hex() == expected
    zeros = bytes(64)
    assert StreamCipher(key).encrypt(zeros, nonce).hex() == hashlib.shake_256(
        key + nonce
    ).hexdigest(64)


def test_seal_open_roundtrip():
    cipher = StreamCipher(b"sealing key")
    blob = cipher.seal(b"hidden", b"\x09" * 8)
    assert cipher.open(blob) == b"hidden"
    with pytest.raises(ProtocolError):
        cipher.open(b"tiny")


def test_generate_key_and_flow_id_reproducible():
    a = generate_key(np.random.default_rng(1))
    b = generate_key(np.random.default_rng(1))
    assert a == b and len(a) == 16
    flow_a = generate_flow_id(np.random.default_rng(2))
    flow_b = generate_flow_id(np.random.default_rng(2))
    assert flow_a == flow_b and flow_a != 0
    assert len(generate_nonce(np.random.default_rng(3))) == 8


def test_key_material_nonce_derivation():
    material = KeyMaterial.generate(np.random.default_rng(4))
    assert material.nonce_for(1) != material.nonce_for(2)
    assert len(material.nonce_for(7)) == 8


def test_simulated_keypair_encrypt_decrypt():
    rng = np.random.default_rng(5)
    pair = SimulatedKeyPair.generate("relay-a", rng)
    envelope = pair.encrypt(b"onion layer")
    assert b"onion layer" not in envelope
    assert pair.decrypt(envelope) == b"onion layer"


def test_simulated_keypair_rejects_foreign_envelopes():
    rng = np.random.default_rng(6)
    alice = SimulatedKeyPair.generate("a", rng)
    bob = SimulatedKeyPair.generate("b", rng)
    with pytest.raises(ValueError):
        bob.decrypt(alice.encrypt(b"not for bob"))


def test_cost_model_defaults_ordering():
    model = PublicKeyCostModel()
    assert model.decrypt_seconds > model.encrypt_seconds > 0
    assert model.symmetric_seconds_per_byte > 0


# -- keystream properties -----------------------------------------------------------

cipher_keys = st.binary(min_size=1, max_size=64)
cipher_nonces = st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE)
stream_lengths = st.integers(0, 4096)


@given(key=cipher_keys, nonce=cipher_nonces, a=stream_lengths, b=stream_lengths)
@settings(max_examples=100, deadline=None)
def test_shorter_keystream_is_a_prefix_of_a_longer_one(key, nonce, a, b):
    # SphinxRelay.peel unrolls ROUTING_SIZE + HOP_SIZE bytes of a stream the
    # source only read ROUTING_SIZE of; both must see the same leading bytes.
    a, b = sorted((a, b))
    cipher = StreamCipher(key)
    assert cipher.keystream(nonce, a) == cipher.keystream(nonce, b)[:a]


@given(
    key=cipher_keys,
    nonce=cipher_nonces,
    message=st.binary(max_size=4096),
    buffer=st.sampled_from([bytes, bytearray, memoryview]),
)
@settings(max_examples=100, deadline=None)
def test_encrypt_round_trips_any_buffer_and_preserves_length(key, nonce, message, buffer):
    cipher = StreamCipher(key)
    ciphertext = cipher.encrypt(buffer(message), nonce)
    assert isinstance(ciphertext, bytes) and len(ciphertext) == len(message)
    assert cipher.decrypt(buffer(ciphertext), nonce) == message


@given(
    key=cipher_keys,
    other_key=cipher_keys,
    nonce=cipher_nonces,
    other_nonce=cipher_nonces,
    length=st.integers(16, 4096),
)
@settings(max_examples=100, deadline=None)
def test_distinct_keys_and_distinct_nonces_give_distinct_streams(
    key, other_key, nonce, other_nonce, length
):
    stream = StreamCipher(key).keystream(nonce, length)
    if other_key != key:
        assert StreamCipher(other_key).keystream(nonce, length) != stream
    if other_nonce != nonce:
        assert StreamCipher(key).keystream(other_nonce, length) != stream


# -- negative paths (hypothesis over the shared strategies) -------------------------


def test_empty_payload_roundtrips():
    cipher = StreamCipher(b"key")
    nonce = b"\x02" * NONCE_SIZE
    assert cipher.encrypt(b"", nonce) == b""
    assert cipher.open(cipher.seal(b"", nonce)) == b""


@given(plaintext=payload_blobs(min_size=1), keys=distinct_key_pairs())
@settings(max_examples=60, deadline=None)
def test_wrong_key_never_recovers_the_plaintext(plaintext, keys):
    key, wrong_key = keys
    nonce = b"\x05" * NONCE_SIZE
    ciphertext = encrypt(key, plaintext, nonce)
    assert decrypt(key, ciphertext, nonce) == plaintext
    # Two streams agree on n bytes once in 256**n draws, whatever the cipher:
    # the wrong-key claim is only sound from 4 bytes (2**-32) up.
    if len(plaintext) >= 4:
        assert decrypt(wrong_key, ciphertext, nonce) != plaintext


@given(plaintext=payload_blobs(min_size=2), cut=st.integers(1, 160))
@settings(max_examples=60, deadline=None)
def test_truncated_ciphertext_never_recovers_the_plaintext(plaintext, cut):
    cut = min(cut, len(plaintext) - 1)
    cipher = StreamCipher(b"truncation key")
    nonce = b"\x06" * NONCE_SIZE
    truncated = cipher.encrypt(plaintext, nonce)[:-cut]
    recovered = cipher.decrypt(truncated, nonce)
    assert recovered != plaintext
    assert recovered == plaintext[: len(plaintext) - cut]


@given(cut=st.integers(1, NONCE_SIZE))
@settings(max_examples=20, deadline=None)
def test_sealed_blob_truncated_into_the_nonce_is_rejected(cut):
    cipher = StreamCipher(b"sealing key")
    blob = cipher.seal(b"", b"\x08" * NONCE_SIZE)
    with pytest.raises(ProtocolError):
        cipher.open(blob[: NONCE_SIZE - cut])


def test_truncated_envelope_header_is_rejected():
    pair = SimulatedKeyPair.generate("relay-t", np.random.default_rng(9))
    envelope = pair.encrypt(b"layer")
    with pytest.raises(ValueError):
        pair.decrypt(envelope[:10])
