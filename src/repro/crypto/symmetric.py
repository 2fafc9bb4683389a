"""Symmetric keystream cipher.

The paper encrypts data messages with a per-destination symmetric key that
the source delivered during route setup (§4.2.1).  Rather than depending on
an external crypto package, we key one extendable-output stream per
``(key, nonce)`` pair: the keystream is ``SHAKE256(key || nonce)`` read to the
length of the message in a single call, and ciphertext is plaintext XOR
keystream.  An XOF instead of a block-counter loop because the stream comes
out of one C call whatever its length (the per-32-byte SHA-256 loop this
replaced was 86 % of the onion/Sphinx bulk-transfer profile), and because a
shorter keystream is by construction a prefix of a longer one —
``keystream(n, a) == keystream(n, b)[:a]`` — which is what lets a Sphinx relay
unroll its routing block past the bytes the source generated.  The nonce has a
fixed width (:data:`NONCE_SIZE`), so ``key || nonce`` has exactly one parse and
keys of different lengths can never share a stream.  This provides the
properties the protocol evaluation needs — the ciphertext is unintelligible
without the key and the operation cost is realistic for a software cipher —
without claiming to be production cryptography.

Contract of the move from the SHA-256 counter construction to the XOF:
ciphertext bytes changed once, deliberately; every result artifact, parity
file and delivered plaintext is byte-identical, because artifacts carry
plaintext digests and counters, never ciphertext.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.errors import ProtocolError

NONCE_SIZE = 8


class StreamCipher:
    """XOF keystream cipher keyed by an arbitrary byte string."""

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ProtocolError("symmetric key must be non-empty")
        self._key = bytes(key)

    def keystream(self, nonce: bytes, length: int) -> bytes:
        """Generate ``length`` keystream bytes for the given nonce."""
        if len(nonce) != NONCE_SIZE:
            raise ProtocolError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
        if length < 0:
            raise ProtocolError(f"keystream length must be non-negative, got {length}")
        return hashlib.shake_256(self._key + nonce).digest(length)

    def encrypt(self, plaintext: bytes, nonce: bytes) -> bytes:
        """XOR ``plaintext`` with the keystream for ``nonce``."""
        stream = self.keystream(nonce, len(plaintext))
        # Vectorised XOR: identical bytes to the per-byte loop, but constant
        # Python overhead — this sits on the data path of every message.
        out = np.bitwise_xor(
            np.frombuffer(plaintext, dtype=np.uint8),
            np.frombuffer(stream, dtype=np.uint8),
        )
        return out.tobytes()

    # XOR is an involution, so decryption is identical to encryption.
    decrypt = encrypt

    def seal(self, plaintext: bytes, nonce: bytes) -> bytes:
        """Encrypt and prepend the nonce, producing a self-contained blob."""
        return nonce + self.encrypt(plaintext, nonce)

    def open(self, blob: bytes) -> bytes:
        """Inverse of :meth:`seal`."""
        if len(blob) < NONCE_SIZE:
            raise ProtocolError("sealed blob shorter than its nonce")
        return self.decrypt(blob[NONCE_SIZE:], blob[:NONCE_SIZE])


def encrypt(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """Module-level convenience wrapper around :class:`StreamCipher`."""
    return StreamCipher(key).encrypt(plaintext, nonce)


def decrypt(key: bytes, ciphertext: bytes, nonce: bytes) -> bytes:
    """Module-level convenience wrapper around :class:`StreamCipher`."""
    return StreamCipher(key).decrypt(ciphertext, nonce)
