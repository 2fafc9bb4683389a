"""Anonymity evaluation: entropy metric and the exact Appendix-A analysis."""

from .analysis import (
    AnonymityResult,
    destination_case1_probability,
    exact_anonymity,
    redundancy_overhead,
    source_case1_probability,
)
from .metrics import (
    degree_of_anonymity,
    entropy,
    information_bits_missing,
    max_entropy,
    two_level_anonymity,
)

__all__ = [
    "entropy",
    "max_entropy",
    "degree_of_anonymity",
    "two_level_anonymity",
    "information_bits_missing",
    "AnonymityResult",
    "exact_anonymity",
    "source_case1_probability",
    "destination_case1_probability",
    "redundancy_overhead",
]
