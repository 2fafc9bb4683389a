"""The exact anonymity DPs of Figs. 7-10 against exhaustive enumeration, the
Case-1 closed forms of Appendix A and the Monte-Carlo oracle."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.anonymity.analysis import (
    _destination_anonymity_from_chain,
    _source_anonymity_from_chain,
    chain_distribution,
    destination_case1_probability,
    exact_anonymity,
    source_case1_probability,
)
from repro.baselines.chaum import exact_chaum_anonymity
from repro.experiments import experiment_rows
from repro.experiments.figures import (
    _FIG07_FRACTIONS,
    _FIG08_SPLIT_FACTORS,
    _FIG09_LENGTHS,
    _FIG10_D_PRIMES,
)

from oracles import anonymity as oracle
from oracles import chaum as chaum_oracle

N = 10_000
FRACTIONS = (0.0, 0.1, 0.5, 0.9)


def enumerated_anonymity(path_length, d, d_prime, fraction):
    """Expectation over every destination slot and every malicious pattern of
    the other ``L·d' - 1`` slots, one oracle :class:`AttackerView` each."""
    slots = [(stage, slot) for stage in range(1, path_length + 1) for slot in range(d_prime)]
    free = len(slots) - 1
    tally, views = Counter(), {}
    for destination in slots:
        others = [slot for slot in slots if slot != destination]
        for flags in itertools.product((False, True), repeat=free):
            malicious = [[False] * d_prime for _ in range(path_length + 1)]
            for (stage, slot), flag in zip(others, flags):
                malicious[stage][slot] = flag
            view = oracle.AttackerView.from_layout(
                oracle.StageLayout(tuple(map(tuple, malicious)), *destination, d, d_prime)
            )
            key = (
                sum(flags),
                view.longest_chain_length,
                view.first_stage_decodable,
                view.decodable_stage_before_destination,
            )
            tally[key] += 1
            views.setdefault(key, view)
    totals = np.zeros(4)
    for key, count in tally.items():
        malicious_slots, _, c1, blocked = key
        weight = count * fraction**malicious_slots * (1 - fraction) ** (free - malicious_slots)
        totals += weight * np.array(
            [
                oracle.source_anonymity_for_view(views[key], N, fraction),
                oracle.destination_anonymity_for_view(views[key], N, fraction),
                c1,
                blocked,
            ]
        )
    return totals / len(slots)


@pytest.mark.parametrize(
    "path_length,d_prime",
    [(L, dp) for L in range(1, 10) for dp in range(1, 10) if L * dp <= 9],
)
def test_exact_anonymity_equals_slot_enumeration(path_length, d_prime):
    for d, fraction in itertools.product((1, 2, 3), FRACTIONS):
        exact = exact_anonymity(N, path_length, d, fraction, d_prime)
        expected = enumerated_anonymity(path_length, d, d_prime, fraction)
        assert np.allclose(
            [exact.source_anonymity, exact.destination_anonymity, exact.source_case1,
             exact.destination_case1],
            expected,
            rtol=0.0,
            atol=1e-12,
        ), (d, fraction)


@pytest.mark.parametrize("path_length", range(1, 11))
def test_exact_chaum_equals_mask_walk(path_length):
    for num_nodes, fraction in [(N, 0.0), (N, 0.1), (500, 0.5), (N, 0.9), (100, 1.0)]:
        clean = max(int(num_nodes * (1.0 - fraction)), 1)
        source = destination = 0.0
        for mask in itertools.product((False, True), repeat=path_length):
            malicious = sum(mask)
            p = fraction**malicious * (1 - fraction) ** (path_length - malicious)
            args = (num_nodes, clean, path_length)
            source += p * chaum_oracle.chain_source_anonymity(mask, *args)
            destination += p * chaum_oracle.chain_destination_anonymity(mask, *args)
        exact = exact_chaum_anonymity(num_nodes, path_length, fraction)
        assert exact.source_anonymity == pytest.approx(source, rel=0.0, abs=1e-12)
        assert exact.destination_anonymity == pytest.approx(destination, rel=0.0, abs=1e-12)


def test_case1_closed_forms_are_the_dp_marginals():
    for path_length, d in itertools.product(range(1, 13), range(1, 5)):
        for d_prime, f in itertools.product(range(d, d + 4), (0.0, 0.05, 0.3, 0.7)):
            exact = exact_anonymity(N, path_length, d, f, d_prime)
            # Eq. 12: the destination Case-1 probability.
            assert exact.destination_case1 == pytest.approx(
                destination_case1_probability(f, d, path_length, d_prime), abs=1e-14
            )
            # Stage 1 holds the destination (d' - 1 free slots) with probability 1/L.
            source = (1 - 1 / path_length) * source_case1_probability(f, d, d_prime)
            source += source_case1_probability(f, d, d_prime - 1) / path_length
            assert exact.source_case1 == pytest.approx(source, abs=1e-14)


FIGURE_POINTS = (
    [dict(path_length=8, d=3, fraction_malicious=f) for f in _FIG07_FRACTIONS]
    + [
        dict(path_length=8, d=d, fraction_malicious=f)
        for d in _FIG08_SPLIT_FACTORS
        for f in (0.1, 0.4)
    ]
    + [dict(path_length=L, d=3, fraction_malicious=0.1) for L in _FIG09_LENGTHS]
    + [dict(path_length=8, d=3, fraction_malicious=0.1, d_prime=dp) for dp in _FIG10_D_PRIMES]
)
TRIALS = 20_000


def assert_within_four_sigma(samples, exact, sigma):
    bound = 4 * sigma / np.sqrt(samples.size)
    assert abs(samples.mean() - exact) <= bound + 1e-12, (samples.mean(), exact, bound)


def exact_second_moments(path_length, d, fraction_malicious, d_prime=None):
    """``E[X^2]`` of the per-trial source and destination anonymity."""
    d_prime = d if d_prime is None else d_prime
    args = (N, path_length, d_prime, fraction_malicious)
    source = destination = 0.0
    for (s, c1, blocked), mass in chain_distribution(
        path_length, d, d_prime, fraction_malicious
    ).items():
        source += 0.0 if c1 else mass * _source_anonymity_from_chain(s, *args) ** 2
        destination += 0.0 if blocked else mass * _destination_anonymity_from_chain(s, *args) ** 2
    return source, destination


@pytest.mark.parametrize("index", range(len(FIGURE_POINTS)))
def test_monte_carlo_oracle_agrees_with_exact_at_figure_points(index):
    # The bound uses the exact per-trial sigma: a sample that misses a rare
    # Case-1 event entirely has sample sigma 0 but is not wrong.
    point = FIGURE_POINTS[index]
    exact = exact_anonymity(N, **point)
    sampled = oracle.simulate_anonymity_trials(
        N, **point, trials=TRIALS, rng=np.random.default_rng(index)
    )
    source_m2, destination_m2 = exact_second_moments(**point)
    for samples, mean, second_moment in [
        (sampled.source_anonymity, exact.source_anonymity, source_m2),
        (sampled.destination_anonymity, exact.destination_anonymity, destination_m2),
        (sampled.source_case1, exact.source_case1, exact.source_case1),
        (sampled.destination_case1, exact.destination_case1, exact.destination_case1),
    ]:
        assert_within_four_sigma(samples, mean, np.sqrt(max(second_moment - mean**2, 0.0)))


@pytest.mark.parametrize("fraction", _FIG07_FRACTIONS)
def test_chaum_oracle_agrees_with_exact_at_figure_points(fraction):
    exact = exact_chaum_anonymity(N, 8, fraction)
    sampled = chaum_oracle.simulate_chaum_trials(
        N, 8, fraction, trials=TRIALS, rng=np.random.default_rng(int(fraction * 1000))
    )
    for samples, mean in [
        (sampled.source_anonymity, exact.source_anonymity),
        (sampled.destination_anonymity, exact.destination_anonymity),
    ]:
        assert_within_four_sigma(samples, mean, samples.std(ddof=1))


@pytest.mark.parametrize(
    "args",
    [(0, 3, 0.1, None), (8, 0, 0.1, None), (8, 3, 0.1, 0), (8, 3, 1.0, None),
     (8, 3, -0.1, None), (8, 3, float("nan"), None)],
)
def test_exact_anonymity_rejects_points_outside_its_domain(args):
    path_length, d, fraction, d_prime = args
    with pytest.raises(ValueError, match="need L, d, d' >= 1 and 0 <= f < 1"):
        exact_anonymity(N, path_length, d, fraction, d_prime)


def test_exact_chaum_rejects_points_outside_its_domain():
    for path_length, fraction in [(0, 0.1), (8, 1.5), (8, float("nan"))]:
        with pytest.raises(ValueError, match="need L >= 1"):
            exact_chaum_anonymity(N, path_length, fraction)


@pytest.mark.parametrize("name", ["fig07", "fig08", "fig09", "fig10"])
def test_anonymity_figure_rows_ignore_scale_seed_and_workers(name):
    rows = experiment_rows(name, scale=0.05)
    assert experiment_rows(name, scale=1.0, seed=7, workers=2) == rows
