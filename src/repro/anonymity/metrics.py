"""Entropy-based anonymity metric (§6.1, Eq. 5).

The anonymity of a system is the entropy of the attacker's probability
distribution over candidate senders (or receivers), normalised by the maximum
possible entropy ``log(N)``:

    Anonymity = H(x) / log(N)

A value of 1 means the attacker has learned nothing (every node is equally
likely); 0 means the attacker has identified the node.  The paper stresses
that 0.5 is still strong: the attacker is missing half the bits needed for
identification.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ..core.errors import ReproError


class MetricError(ReproError):
    """Invalid input to an anonymity metric computation."""


def entropy(probabilities: Iterable[float]) -> float:
    """Shannon entropy (natural units cancel in the normalised metric; we use bits).

    >>> entropy([0.25, 0.25, 0.25, 0.25])
    2.0
    >>> entropy([1.0, 0.0])
    0.0
    """
    probs = np.asarray(list(probabilities), dtype=float)
    if probs.size == 0:
        raise MetricError("cannot compute the entropy of an empty distribution")
    if np.any(probs < -1e-12):
        raise MetricError("probabilities must be non-negative")
    total = probs.sum()
    if total <= 0:
        raise MetricError("probabilities must sum to a positive value")
    probs = probs / total
    nonzero = probs[probs > 0]
    # ``+ 0.0`` normalises the -0.0 of a deterministic distribution.
    return float(-(nonzero * np.log2(nonzero)).sum() + 0.0)


def max_entropy(num_candidates: int) -> float:
    """The entropy of the uniform distribution over ``num_candidates`` nodes.

    >>> max_entropy(8)
    3.0
    """
    if num_candidates < 1:
        raise MetricError("need at least one candidate node")
    return math.log2(num_candidates)


def degree_of_anonymity(probabilities: Iterable[float], num_candidates: int) -> float:
    """Normalised anonymity ``H(x) / log(N)`` (Eq. 5), clamped to [0, 1].

    >>> degree_of_anonymity([1 / 16] * 16, 16)
    1.0
    >>> degree_of_anonymity([1.0], 16)
    0.0
    """
    if num_candidates <= 1:
        return 0.0
    value = entropy(probabilities) / max_entropy(num_candidates)
    # ``+ 0.0`` normalises the -0.0 that a zero-entropy distribution produces.
    return float(min(max(value, 0.0), 1.0) + 0.0)


def two_level_anonymity(
    count_high: int, prob_high: float, count_low: int, prob_low: float, total_nodes: int
) -> float:
    """Anonymity of a two-level distribution, computed in closed form.

    The attacker models used in the paper's appendix always produce
    distributions with (at most) two distinct probability values: one for the
    small suspect set and one for everyone else.  Computing the entropy in
    closed form keeps each assignment ``O(1)`` even for ``N = 10000`` nodes.
    """
    if total_nodes <= 1:
        return 0.0
    if count_high < 0 or count_low < 0:
        raise MetricError("candidate counts must be non-negative")
    mass = count_high * prob_high + count_low * prob_low
    if mass <= 0:
        raise MetricError("distribution has no probability mass")
    p_high = prob_high / mass
    p_low = prob_low / mass
    h = 0.0
    if count_high > 0 and p_high > 0:
        h -= count_high * p_high * math.log2(p_high)
    if count_low > 0 and p_low > 0:
        h -= count_low * p_low * math.log2(p_low)
    return float(min(max(h / math.log2(total_nodes), 0.0), 1.0))

