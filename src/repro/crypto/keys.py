"""Key and identifier generation helpers.

Everything is driven by a caller-supplied :class:`numpy.random.Generator` so
that complete protocol runs are reproducible from a single seed — which is
what the tests and the experiment harness rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.node_info import FLOW_ID_SIZE, KEY_SIZE


def generate_key(rng: np.random.Generator, size: int = KEY_SIZE) -> bytes:
    """Generate ``size`` random key bytes."""
    return bytes(rng.integers(0, 256, size=size, dtype=np.uint8).tobytes())


def generate_nonce(rng: np.random.Generator, size: int = 8) -> bytes:
    """Generate a random nonce."""
    return generate_key(rng, size=size)


def generate_flow_id(rng: np.random.Generator) -> int:
    """Generate a random 64-bit flow identifier (never zero)."""
    value = 0
    while value == 0:
        value = int(rng.integers(1, 2 ** (8 * FLOW_ID_SIZE), dtype=np.uint64))
    return value


@dataclass(frozen=True)
class KeyMaterial:
    """Symmetric key plus the nonce prefix used for a flow's data messages."""

    key: bytes
    nonce_prefix: bytes

    @classmethod
    def generate(cls, rng: np.random.Generator) -> "KeyMaterial":
        return cls(key=generate_key(rng), nonce_prefix=generate_nonce(rng, size=4))
