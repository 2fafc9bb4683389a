"""The wire layer under both TCP substrates, sans I/O at its core.

The aio overlay backend and the distributed coordinator/worker protocol
share one stack, bottom up:

* :mod:`repro.net.framing` — the length-prefixed frame format, its size
  bound, and the plain *session* (seal / body size / open, no crypto);
* :mod:`repro.net.secure` — the Noise-style cipher states, the secure
  session with the same surface, and the three-act handshake as a generator
  that yields bytes to send and byte counts to read;
* :mod:`repro.net.channel` — the two I/O shims (blocking socket, asyncio
  streams) that move a session's bytes and drive a handshake generator;
* :mod:`repro.net.keyfiles` — the on-disk key and allowlist formats.
"""

from __future__ import annotations

from .channel import AioChannel, SyncChannel
from .framing import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    PLAIN,
    decode_frames,
    encode_frame,
)
from .keyfiles import (
    TransportCredential,
    load_allowlist,
    load_keypair,
    load_public_key,
    write_keypair,
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
    "SyncChannel",
    "TransportCredential",
    "aead_decrypt",
    "aead_encrypt",
    "decode_frames",
    "encode_frame",
    "handshake",
    "load_allowlist",
    "load_keypair",
    "load_public_key",
    "write_keypair",
]
