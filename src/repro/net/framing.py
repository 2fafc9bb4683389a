"""The one home of the length-prefixed frame format and the plain session.

Every wire the repo owns — the asyncio overlay backend's relay links —
carries *frames*: a 4-byte big-endian length
followed by that many payload bytes.  A connection's *session* is what turns
payloads into wire bytes and back, through a four-member byte-in/byte-out
surface the I/O shim in :mod:`repro.net.channel` drives::

    header_size          bytes of one wire header
    seal(payload)        payload -> complete wire message
    body_size(header)    header bytes -> how many body bytes follow
    open(body)           body bytes -> payload

:data:`PLAIN` is the session that does no crypto;
:class:`~repro.net.secure.SecureSession` is the one a handshake returns.
Both enforce :data:`MAX_FRAME_BYTES` through :func:`check_frame_size`, so an
oversized payload or declared length raises the same
:class:`~repro.core.errors.PacketFormatError` on either transport.
"""

from __future__ import annotations

import struct

from ..core.errors import PacketFormatError

#: Length prefix of every frame on the wire.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's payload; anything larger is a protocol
#: error (slicing packets are a few KiB even at large split factors).
MAX_FRAME_BYTES = 1 << 22


def check_frame_size(size: int) -> int:
    """Return ``size`` if a frame may carry it; the bound both sessions share."""
    if size > MAX_FRAME_BYTES:
        raise PacketFormatError(
            f"frame of {size} bytes is over the {MAX_FRAME_BYTES}-byte limit"
        )
    return size


def encode_frame(payload: bytes) -> bytes:
    """Length-prefix ``payload`` for the wire."""
    return FRAME_HEADER.pack(check_frame_size(len(payload))) + payload


def decode_frames(data: bytes) -> list[bytes]:
    """Split a byte string into exact frames; reject truncated or oversized ones.

    The socket shims read frame by frame; this strict batch form is the
    reference the property tests exercise: the buffer must contain a whole
    number of well-formed frames.
    """
    frames: list[bytes] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < FRAME_HEADER.size:
            raise PacketFormatError("truncated frame header")
        (length,) = FRAME_HEADER.unpack_from(data, offset)
        check_frame_size(length)
        offset += FRAME_HEADER.size
        if total - offset < length:
            raise PacketFormatError("truncated frame payload")
        frames.append(data[offset : offset + length])
        offset += length
    return frames


class PlainSession:
    """The stateless session of a plaintext connection: framing, no crypto."""

    header_size = FRAME_HEADER.size
    seal = staticmethod(encode_frame)

    @staticmethod
    def body_size(header: bytes) -> int:
        return check_frame_size(FRAME_HEADER.unpack(header)[0])

    @staticmethod
    def open(body: bytes) -> bytes:
        return body


#: Shared by every plaintext connection (it has no state to keep apart).
PLAIN = PlainSession()
