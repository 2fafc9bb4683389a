"""Appendix A, evaluated exactly.

The closed forms give the probability of the catastrophic "Case 1" events
(the attacker decodes the graph and anonymity collapses to zero), including
the redundancy-aware variants of Appendix A.3 used for Fig. 10.  The per-``s``
assignments of Eqs. 8 and 11 give the anonymity left once the attacker's
longest exposed chain ``s`` is known.  :func:`exact_anonymity` combines the
two: it computes the joint law of ``s`` and the Case-1 events with a dynamic
programme over stages, so Figs. 7-10 report the expectation itself rather
than a Monte-Carlo estimate of it.  ``docs/anonymity-math.md`` states the
programme next to the equations it evaluates.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .metrics import two_level_anonymity


def _g(x: int, y: int, z: float) -> float:
    """The helper ``g(x, y, z) = Σ_{i=1..y} C(x, i) z^i (1-z)^(x-i)`` (App. A.2)."""
    return sum(
        math.comb(x, i) * (z**i) * ((1.0 - z) ** (x - i)) for i in range(1, y + 1)
    )


def source_case1_probability(
    f: float, d: int, d_prime: int | None = None
) -> float:
    """Probability the attacker controls enough of stage 1 to unmask the source.

    Without redundancy this is ``f^d`` (all of stage 1 malicious).  With
    redundancy ``d' > d`` the attacker needs only ``d`` of the ``d'`` relays
    in stage 1 (Appendix A.3).

    >>> round(source_case1_probability(0.2, 3), 6)
    0.008
    >>> source_case1_probability(0.2, 3, 5) > source_case1_probability(0.2, 3)
    True
    """
    d_prime = d if d_prime is None else d_prime
    return sum(
        math.comb(d_prime, i) * (f**i) * ((1.0 - f) ** (d_prime - i))
        for i in range(d, d_prime + 1)
    )


def destination_case1_probability(
    f: float, d: int, path_length: int, d_prime: int | None = None
) -> float:
    """Probability some stage upstream of the destination is fully decodable.

    Implements Eqs. 9, 10 and, when ``d' > d``, Eq. 12: the destination sits
    in stage ``j + 1`` with probability ``1/L`` and the attacker wins if at
    least one of the ``j`` upstream stages contains ``d`` (of ``d'``)
    malicious relays.
    """
    d_prime = d if d_prime is None else d_prime
    per_stage = source_case1_probability(f, d, d_prime)
    if per_stage <= 0:
        return 0.0
    total = 0.0
    for j in range(0, path_length):
        # Destination in stage j+1; attacker needs >=1 decodable stage among j.
        p_fail = 1.0 - (1.0 - per_stage) ** j
        total += p_fail
    return total / path_length


# -- Appendix-A probability assignments as functions of the chain length ---------


def _source_anonymity_from_chain(
    s: int, num_nodes: int, path_length: int, d_prime: int, fraction_malicious: float
) -> float:
    """Source anonymity given the longest exposed chain ``s`` (Appendix A.1).

    The attacker's best guess for the source stage is the first stage of its
    longest exposed chain (Eq. 8): the chain of s exposed stages can start at
    any of (L + 1) - s + 1 positions among the L + 1 stages, so the first
    exposed stage is the source stage with probability 1/(L - s + 2), shared
    equally among its d' candidate nodes.
    """
    if s <= 0:
        clean = max(int(num_nodes * (1.0 - fraction_malicious)), 1)
        return two_level_anonymity(0, 0.0, clean, 1.0 / clean, num_nodes)
    denominator = max(path_length - s + 2, 2)
    gamma_mass = 1.0 / denominator
    p_gamma = gamma_mass / d_prime
    others = max(int(num_nodes * (1.0 - fraction_malicious)) - d_prime, 1)
    p_other = max(1.0 - gamma_mass, 0.0) / others
    return two_level_anonymity(d_prime, p_gamma, others, p_other, num_nodes)


def _destination_anonymity_from_chain(
    s: int, num_nodes: int, path_length: int, d_prime: int, fraction_malicious: float
) -> float:
    """Destination anonymity given the longest exposed chain ``s`` (Appendix A.2)."""
    if s <= 0:
        clean = max(int(num_nodes * (1.0 - fraction_malicious)), 1)
        return two_level_anonymity(0, 0.0, clean, 1.0 / clean, num_nodes)
    s = min(s, path_length)
    suspects = max(int(s * d_prime * (1.0 - fraction_malicious)), 1)
    p_suspect = 1.0 / (path_length * d_prime * (1.0 - fraction_malicious))
    others = max(int((num_nodes - s * d_prime) * (1.0 - fraction_malicious)), 1)
    p_other = max(1.0 - s / path_length, 0.0) / others
    return two_level_anonymity(suspects, p_suspect, others, p_other, num_nodes)


# -- the exact expectation -------------------------------------------------------


@dataclass(frozen=True)
class AnonymityResult:
    """Expected anonymity of one parameter point, and its two Case-1 probabilities."""

    source_anonymity: float
    destination_anonymity: float
    source_case1: float
    destination_case1: float


def _stage_outcomes(slots: int, d: int, f: float) -> tuple[tuple[bool, bool, float], ...]:
    """``(malicious, decodable, probability)`` of a stage with ``slots`` free slots.

    A stage is clean, malicious with fewer than ``d`` relays, or decodable
    (``>= d``); zero-probability outcomes are dropped.
    """
    outcomes = (
        (False, False, (1.0 - f) ** slots),
        (True, False, _g(slots, d - 1, f)),
        (True, True, source_case1_probability(f, d, slots)),
    )
    return tuple(outcome for outcome in outcomes if outcome[2] > 0.0)


def chain_distribution(
    path_length: int, d: int, d_prime: int, fraction_malicious: float
) -> dict[tuple[int, bool, bool], float]:
    """The joint law ``P(s, c1, blocked)`` of one forwarding-graph instance.

    ``s`` is the longest run of exposed stages among stages ``0..L``, ``c1``
    says stage 1 is decodable (source Case 1) and ``blocked`` says a stage
    before the destination's is (destination Case 1).  Every relay slot is
    malicious independently with probability ``f``; the destination stage
    ``D`` is uniform on ``1..L`` and its destination slot is clean, so it
    draws from ``d' - 1`` slots.

    The scan visits stages ``1..L`` and one clean virtual stage ``L + 1``.
    Stage ``j`` is exposed when ``m_{j-1} or m_j or m_{j+1}`` (``m`` = has a
    malicious relay, ``m_0 = m_{L+1} = False``), so reading stage ``l + 1``
    settles the exposure of stage ``l``.  ``D`` is folded into the scan: a
    stage not yet past the destination is the destination with probability
    ``1 / (L - l + 1)``.  The state is ``(m_{l-1}, m_l, current run, longest
    run, c1, blocked, placed)``.
    """
    relay = _stage_outcomes(d_prime, d, fraction_malicious)
    destination = _stage_outcomes(d_prime - 1, d, fraction_malicious)
    states = {(False, False, 0, 0, False, False, False): 1.0}
    for stage in range(1, path_length + 2):
        # Branches (malicious, decodable, is the destination, probability)
        # for a stage after the destination and for one not yet past it.
        if stage > path_length:
            after = before = ((False, False, False, 1.0),)
        else:
            hazard = 1.0 / (path_length - stage + 1)
            after = tuple((m, dec, False, p) for m, dec, p in relay)
            before = tuple((m, dec, True, p * hazard) for m, dec, p in destination)
            if hazard < 1.0:
                before += tuple((m, dec, False, p * (1.0 - hazard)) for m, dec, p in relay)
        following: defaultdict[tuple, float] = defaultdict(float)
        for (previous, current, run, longest, c1, blocked, placed), mass in states.items():
            for m, dec, is_destination, p in after if placed else before:
                run_after = run + 1 if previous or current or m else 0
                key = (
                    current,
                    m,
                    run_after,
                    max(longest, run_after),
                    c1 or (stage == 1 and dec),
                    blocked or (dec and not placed and not is_destination),
                    placed or is_destination,
                )
                following[key] += mass * p
        states = following
    joint: defaultdict[tuple[int, bool, bool], float] = defaultdict(float)
    for (_, _, _, longest, c1, blocked, _), mass in states.items():
        joint[longest, c1, blocked] += mass
    return dict(joint)


def exact_anonymity(
    num_nodes: int,
    path_length: int,
    d: int,
    fraction_malicious: float,
    d_prime: int | None = None,
) -> AnonymityResult:
    """Expected source and destination anonymity of one parameter point (§6, App. A).

    Parameters mirror Table 1: ``num_nodes`` is N, ``path_length`` is L,
    ``d`` the split factor, ``fraction_malicious`` is f, and ``d_prime``
    enables the redundancy study of Fig. 10.  A graph instance's source
    anonymity is 0 under source Case 1 and Eq. 8's value at its longest
    exposed chain ``s`` otherwise; its destination anonymity likewise with
    destination Case 1 and Eq. 11.  The result is their expectation under
    :func:`chain_distribution`.

    >>> result = exact_anonymity(10_000, 8, 3, 0.0)
    >>> result.source_anonymity, result.destination_case1
    (1.0, 0.0)
    """
    d_prime = d if d_prime is None else d_prime
    if min(path_length, d, d_prime) < 1 or not 0.0 <= fraction_malicious < 1.0:
        raise ValueError(
            f"need L, d, d' >= 1 and 0 <= f < 1, got L={path_length}, d={d}, "
            f"d'={d_prime}, f={fraction_malicious}"
        )
    args = (num_nodes, path_length, d_prime, fraction_malicious)
    source = destination = source_case1 = destination_case1 = 0.0
    for (s, c1, blocked), mass in chain_distribution(
        path_length, d, d_prime, fraction_malicious
    ).items():
        if c1:
            source_case1 += mass
        else:
            source += mass * _source_anonymity_from_chain(s, *args)
        if blocked:
            destination_case1 += mass
        else:
            destination += mass * _destination_anonymity_from_chain(s, *args)
    return AnonymityResult(source, destination, source_case1, destination_case1)


def redundancy_overhead(d: int, d_prime: int) -> float:
    """Added redundancy R = (d' - d)/d (§4.4, §8.1).

    >>> redundancy_overhead(3, 6)
    1.0
    >>> redundancy_overhead(2, 2)
    0.0
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return (d_prime - d) / d
