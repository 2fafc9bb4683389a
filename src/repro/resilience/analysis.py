"""Analytical churn-resilience model (§8, Eqs. 6 and 7, Figs. 16 and 17).

Both schemes add the same redundancy ``R = (d' - d)/d`` by sending ``d'``
coded slices of which any ``d`` suffice:

* *Onion routing with erasure codes* builds ``d'`` independent onion paths.
  A path survives only if **all** ``L`` of its relays stay up, and the
  transfer succeeds if at least ``d`` paths survive (Eq. 6).
* *Information slicing* lets relays regenerate redundancy (§4.4.1), so a
  transfer survives as long as **every stage** keeps at least ``d`` live
  relays — failures in different stages do not compound (Eq. 7).

Fig. 16 evaluates both at a fixed node-failure probability.  Fig. 17 is
the same formulas, plus plain onion routing, at the probability that a
PlanetLab-churn node dies within a 30-minute session.  Where the relays
part from Eq. 7's every-stage premise is in docs/ARCHITECTURE.md
("Resilience").
"""

from __future__ import annotations

import math


def path_survival_probability(node_failure_prob: float, path_length: int) -> float:
    """Probability that a single onion path of ``L`` relays stays up."""
    _validate_probability(node_failure_prob)
    return (1.0 - node_failure_prob) ** path_length


def onion_erasure_success_probability(
    node_failure_prob: float, path_length: int, d: int, d_prime: int
) -> float:
    """Eq. 6: at least ``d`` of ``d'`` independent onion paths survive."""
    _validate_parameters(d, d_prime)
    p_path = path_survival_probability(node_failure_prob, path_length)
    return sum(
        math.comb(d_prime, i) * (p_path**i) * ((1.0 - p_path) ** (d_prime - i))
        for i in range(d, d_prime + 1)
    )


def stage_success_probability(node_failure_prob: float, d: int, d_prime: int) -> float:
    """Probability a single stage keeps at least ``d`` of its ``d'`` relays."""
    _validate_parameters(d, d_prime)
    _validate_probability(node_failure_prob)
    p = node_failure_prob
    return sum(
        math.comb(d_prime, i) * ((1.0 - p) ** i) * (p ** (d_prime - i))
        for i in range(d, d_prime + 1)
    )


def slicing_success_probability(
    node_failure_prob: float, path_length: int, d: int, d_prime: int
) -> float:
    """Eq. 7: every one of the ``L`` stages keeps at least ``d`` live relays."""
    return stage_success_probability(node_failure_prob, d, d_prime) ** path_length


def standard_onion_success_probability(
    node_failure_prob: float, path_length: int
) -> float:
    """Plain onion routing (one path, no redundancy) for the Fig. 17 comparison."""
    return path_survival_probability(node_failure_prob, path_length)


def _validate_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")


def _validate_parameters(d: int, d_prime: int) -> None:
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d_prime < d:
        raise ValueError(f"d' ({d_prime}) must be >= d ({d})")
