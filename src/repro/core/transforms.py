"""Per-hop anti-pattern transforms (§9.4a).

Colluding attackers in non-consecutive stages could try to track a flow by
injecting a recognisable bit pattern and watching it reappear downstream.
The countermeasure: before transmission the source passes every slice through
a chain of random invertible transforms — one per relay that will handle the
slice — and confidentially tells each of those relays the inverse of "its"
transform.  Every hop peels one transform, so the slice never looks the same
on two links, yet arrives at its owner unmodified.

We use affine transforms over GF(2^8): ``y = a * x + b`` applied element-wise
with a non-zero multiplier ``a`` and mask ``b``.  Affine maps compose and
invert in closed form, which keeps the per-hop cost at one multiply and one
XOR per byte — the same order as the coding itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coder import CodedBlock
from .errors import CodingError
from .gf import GF, GF256


@dataclass(frozen=True)
class AffineTransform:
    """An invertible element-wise transform ``y = a*x + b`` over GF(2^8)."""

    multiplier: int
    mask: int

    def __post_init__(self) -> None:
        if not 1 <= self.multiplier <= 255:
            raise CodingError(
                f"transform multiplier must be a non-zero field element, "
                f"got {self.multiplier}"
            )
        if not 0 <= self.mask <= 255:
            raise CodingError(f"transform mask must be a field element, got {self.mask}")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "AffineTransform":
        return cls(
            multiplier=int(rng.integers(1, 256)), mask=int(rng.integers(0, 256))
        )

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(multiplier=1, mask=0)

    def apply(self, data: np.ndarray, field: GF256 = GF) -> np.ndarray:
        """Apply the transform element-wise to a uint8 array."""
        data = np.asarray(data, dtype=np.uint8)
        return field.add(field.multiply(data, np.uint8(self.multiplier)), np.uint8(self.mask))

    def apply_block(self, block: CodedBlock, field: GF256 = GF) -> CodedBlock:
        """Apply the transform to a coded slice (payload and coefficients)."""
        return CodedBlock(
            coefficients=self.apply(block.coefficients, field),
            payload=self.apply(block.payload, field),
            index=block.index,
        )

    def invert(self, field: GF256 = GF) -> "AffineTransform":
        """The transform ``x = a^{-1} * (y + b)`` undoing this one."""
        inv_a = int(field.inverse(np.uint8(self.multiplier)))
        new_mask = int(field.multiply(np.uint8(inv_a), np.uint8(self.mask)))
        return AffineTransform(multiplier=inv_a, mask=new_mask)

    def compose(self, inner: "AffineTransform", field: GF256 = GF) -> "AffineTransform":
        """The transform equivalent to applying ``inner`` first, then ``self``."""
        a = int(field.multiply(np.uint8(self.multiplier), np.uint8(inner.multiplier)))
        b = int(
            field.add(
                field.multiply(np.uint8(self.multiplier), np.uint8(inner.mask)),
                np.uint8(self.mask),
            )
        )
        return AffineTransform(multiplier=a, mask=b)



def build_transform_chain(
    hops: int, rng: np.random.Generator, field: GF256 = GF
) -> tuple[AffineTransform, list[AffineTransform]]:
    """Create the chain applied by the source and the per-hop inverses.

    For a slice that will traverse ``hops`` relays before reaching its owner,
    the source applies ``T_{hops} ∘ ... ∘ T_1`` and relay ``i`` (in traversal
    order) applies the inverse of ``T_i``... except that inverses must be
    peeled outermost-first, so relay ``i`` actually receives the inverse of
    ``T_{hops - i + 1}``.  Returns ``(combined, per_hop_inverses)`` where
    ``per_hop_inverses[i]`` is what the ``i``-th relay on the path applies.
    """
    if hops < 0:
        raise CodingError(f"hop count must be non-negative, got {hops}")
    transforms = [AffineTransform.random(rng) for _ in range(hops)]
    combined = AffineTransform.identity()
    for transform in transforms:
        combined = transform.compose(combined, field)
    # Relay i peels the outermost remaining layer: T_{hops}, then T_{hops-1}, ...
    inverses = [transforms[hops - 1 - i].invert(field) for i in range(hops)]
    return combined, inverses

