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
unroll its routing block past the bytes the source generated, and what lets
one mask serve a burst of cells of mixed lengths (:func:`mask_cells`).  The
nonce has a fixed width (:data:`NONCE_SIZE`), so ``key || nonce`` has exactly
one parse and keys of different lengths can never share a stream.  This
provides the properties the protocol evaluation needs — the ciphertext is
unintelligible without the key and the operation cost is realistic for a
software cipher — without claiming to be production cryptography.

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


def layered_keystream(keys: list[bytes], nonce: bytes, length: int) -> np.ndarray:
    """The XOR of every key's ``length``-byte keystream for one ``nonce``.

    XORing a cell with this mask equals encrypting it under each key in turn
    (XOR commutes), so a circuit's source layers all of its hops with one
    mask and a relay strips its own hop with the one-key mask.  Nothing is
    cached: each call derives one keystream per key.
    """
    mask = np.zeros(length, dtype=np.uint8)
    for key in keys:
        mask ^= np.frombuffer(StreamCipher(key).keystream(nonce, length), dtype=np.uint8)
    return mask


def mask_cells(cells: list[bytes], mask: np.ndarray) -> list[bytes]:
    """XOR each cell with the prefix of ``mask`` as long as the cell.

    A shorter keystream is a prefix of a longer one, so a mask built at the
    longest cell's length serves every cell of a burst.  Cells of one length
    (every figure's burst) are stacked and masked in one XOR.

    >>> keys, nonce, cell = [b"hop-1", b"hop-2"], bytes(NONCE_SIZE), b"one data cell"
    >>> mask = layered_keystream(keys, nonce, 32)
    >>> layered = StreamCipher(keys[1]).encrypt(StreamCipher(keys[0]).encrypt(cell, nonce), nonce)
    >>> mask_cells([cell], mask) == [layered]
    True
    >>> mask_cells([cell[:4]], mask) == [layered[:4]]
    True
    """
    lengths = set(map(len, cells))
    if len(lengths) == 1:
        length = lengths.pop()
        stacked = np.frombuffer(b"".join(cells), dtype=np.uint8).reshape(len(cells), length)
        return [row.tobytes() for row in stacked ^ mask[:length]]
    return [
        (np.frombuffer(cell, dtype=np.uint8) ^ mask[: len(cell)]).tobytes()
        for cell in cells
    ]
