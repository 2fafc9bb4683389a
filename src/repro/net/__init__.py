"""The wire layer under the aio overlay backend, sans I/O at its core.

Bottom up:

* :mod:`repro.net.framing` — the length-prefixed frame format, its size
  bound, and the plain *session* (seal / body size / open, no crypto);
* :mod:`repro.net.secure` — the Noise-style cipher states, the secure
  session with the same surface, and the three-act handshake as a generator
  that yields bytes to send and byte counts to read;
* :mod:`repro.net.channel` — the asyncio-streams shim that moves a
  session's bytes and drives a handshake generator.
"""

from __future__ import annotations

from .channel import AioChannel
from .framing import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    PLAIN,
    decode_frames,
    encode_frame,
)
from .secure import (
    CipherState,
    HandshakeState,
    SecureSession,
    StaticKeyPair,
    aead_decrypt,
    aead_encrypt,
    handshake,
)

__all__ = [
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "PLAIN",
    "AioChannel",
    "CipherState",
    "HandshakeState",
    "SecureSession",
    "StaticKeyPair",
    "aead_decrypt",
    "aead_encrypt",
    "decode_frames",
    "encode_frame",
    "handshake",
]
