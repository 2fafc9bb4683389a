"""Exception hierarchy for the information-slicing library.

All errors raised by :mod:`repro` derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish coding errors from protocol errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class FieldError(ReproError):
    """Invalid finite-field operation (e.g. division by zero, bad element)."""


class MatrixError(ReproError):
    """Matrix construction or inversion failed (e.g. singular matrix)."""


class CodingError(ReproError):
    """Encoding or decoding of slices failed."""


class InsufficientSlicesError(CodingError):
    """A decoder was asked to decode with fewer than ``d`` independent slices."""

    def __init__(self, needed: int, received: int) -> None:
        super().__init__(
            f"need at least {needed} linearly independent slices, got {received}"
        )
        self.needed = needed
        self.received = received


class GraphConstructionError(ReproError):
    """The forwarding graph could not be built with the requested parameters."""


class ProtocolError(ReproError):
    """A protocol invariant was violated (malformed packet, unknown flow, ...)."""


class PacketFormatError(ProtocolError):
    """A packet could not be parsed or serialized."""


class SecureTransportError(ProtocolError):
    """The authenticated transport layer (:mod:`repro.net`) failed."""


class HandshakeError(SecureTransportError):
    """The Noise-style handshake failed: bad MAC, bad group element, or an
    unauthorized static key.  Raised *before* any application frame of the
    session is processed."""


class FrameAuthenticationError(SecureTransportError):
    """An encrypted frame failed authentication (tampered ciphertext, a
    replayed or reordered message hitting the wrong nonce, or a truncated
    body)."""


class KeyFileError(SecureTransportError):
    """A static-key or allowlist file is missing or malformed."""


class SimulationError(ReproError):
    """The overlay simulator was driven into an invalid state."""


class ChurnError(SimulationError):
    """A churn model was configured with invalid parameters."""


class SelectionError(ReproError):
    """Relay selection could not satisfy the requested constraints."""
