"""Anonymity evaluation: entropy metric and the exact Appendix-A analysis."""

from .analysis import (
    AnonymityResult,
    destination_case1_probability,
    exact_anonymity,
    source_case1_probability,
)
from .metrics import (
    degree_of_anonymity,
    entropy,
    max_entropy,
    two_level_anonymity,
)

__all__ = [
    "entropy",
    "max_entropy",
    "degree_of_anonymity",
    "two_level_anonymity",
    "AnonymityResult",
    "exact_anonymity",
    "source_case1_probability",
    "destination_case1_probability",
]
