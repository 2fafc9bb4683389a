"""Cryptographic substrates: keystream cipher, key material, PK cost model."""

from .keys import KeyMaterial, generate_flow_id, generate_key
from .symmetric import StreamCipher
from .public_key import PublicKeyCostModel, SimulatedKeyPair

__all__ = [
    "KeyMaterial",
    "StreamCipher",
    "PublicKeyCostModel",
    "SimulatedKeyPair",
    "generate_key",
    "generate_flow_id",
]
