"""Integrity framing and robust decoding helpers.

With node churn a relay may be forced to pad a slot it cannot fill (its own
parent failed before delivering the slice).  The downstream node then holds a
mix of genuine coded slices and random padding and must not let padding
corrupt a decode.  We frame every sliced payload with a magic tag and a CRC32
so a decoder can *verify* a candidate decode, and we provide
:func:`robust_decode`, which searches subsets of the received slices until a
verifying combination is found.

This framing is applied before coding, so it travels inside the confidential
payload and reveals nothing to intermediate nodes.
"""

from __future__ import annotations

import struct
import zlib
from itertools import combinations, islice

from .coder import CodedBlock, SliceCoder
from .errors import CodingError, InsufficientSlicesError

#: Magic tag marking a framed payload.
MAGIC = b"ISLC"

_FRAME_HEADER = struct.Struct(">4sII")  # magic, length, crc32

#: Most ``d``-subsets :func:`robust_decode` tries after the greedy decode.
MAX_DECODE_SUBSETS = 256


def wrap(payload: bytes) -> bytes:
    """Frame ``payload`` with a magic tag, its length, and a CRC32."""
    return _FRAME_HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def unwrap(data: bytes) -> bytes:
    """Validate and strip the frame added by :func:`wrap`.

    Raises :class:`CodingError` if the frame is malformed or the checksum
    does not match.
    """
    if len(data) < _FRAME_HEADER.size:
        raise CodingError("framed payload shorter than its header")
    magic, length, crc = _FRAME_HEADER.unpack(data[: _FRAME_HEADER.size])
    if magic != MAGIC:
        raise CodingError("framed payload has a bad magic tag")
    body = data[_FRAME_HEADER.size : _FRAME_HEADER.size + length]
    if len(body) != length:
        raise CodingError("framed payload truncated")
    if zlib.crc32(body) != crc:
        raise CodingError("framed payload failed its integrity check")
    return body


def verify(data: bytes) -> bool:
    """True iff ``data`` is a well-formed frame with a matching checksum."""
    try:
        unwrap(data)
    except CodingError:
        return False
    return True


def robust_decode(coder: SliceCoder, blocks: list[CodedBlock]) -> bytes:
    """Decode a framed payload from ``blocks``, tolerating garbage slices.

    First attempts the straightforward greedy decode; if the result fails the
    integrity check (some received slices were churn padding or corrupted),
    searches subsets of ``d`` blocks — up to :data:`MAX_DECODE_SUBSETS` of
    them — for a combination that verifies.

    Returns the unwrapped payload.  Raises
    :class:`~repro.core.errors.InsufficientSlicesError` if no verifying
    subset exists.
    """
    if len(blocks) < coder.d:
        raise InsufficientSlicesError(coder.d, len(blocks))
    try:
        candidate = coder.decode(blocks)
        if verify(candidate):
            return unwrap(candidate)
    except CodingError:
        pass

    subsets = combinations(range(len(blocks)), coder.d)
    for subset in islice(subsets, MAX_DECODE_SUBSETS):
        chosen = [blocks[i] for i in subset]
        try:
            candidate = coder.decode(chosen)
        except CodingError:
            continue
        if verify(candidate):
            return unwrap(candidate)
    raise InsufficientSlicesError(coder.d, len(blocks))
