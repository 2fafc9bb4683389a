"""Tests for the anonymity metric, attacker model and the exact analysis."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymity.analysis import (
    _destination_anonymity_from_chain,
    _source_anonymity_from_chain,
    destination_case1_probability,
    exact_anonymity,
    source_case1_probability,
)
from repro.anonymity.metrics import (
    MetricError,
    degree_of_anonymity,
    entropy,
    max_entropy,
    two_level_anonymity,
)
from repro.baselines.chaum import exact_chaum_anonymity

from oracles.anonymity import (
    AttackerViewBatch,
    StageLayoutBatch,
    _longest_true_runs,
    sample_stage_layout_batch,
)


# -- metrics ---------------------------------------------------------------------------


def test_entropy_of_uniform_distribution():
    assert entropy([0.25] * 4) == pytest.approx(2.0)
    assert max_entropy(8) == pytest.approx(3.0)


def test_entropy_rejects_bad_input():
    with pytest.raises(MetricError):
        entropy([])
    with pytest.raises(MetricError):
        entropy([-0.5, 1.5])
    with pytest.raises(MetricError):
        max_entropy(0)


def test_degree_of_anonymity_bounds():
    assert degree_of_anonymity([1.0], 100) == 0.0
    uniform = [1 / 100] * 100
    assert degree_of_anonymity(uniform, 100) == pytest.approx(1.0)


def test_two_level_matches_direct_entropy():
    n = 1000
    high, p_high = 5, 0.1
    low = 200
    p_low = (1 - high * p_high) / low
    direct = degree_of_anonymity([p_high] * high + [p_low] * low, n)
    closed = two_level_anonymity(high, p_high, low, p_low, n)
    assert closed == pytest.approx(direct, rel=1e-9)


@given(
    high=st.integers(min_value=0, max_value=20),
    low=st.integers(min_value=1, max_value=500),
    p_high=st.floats(min_value=0.0, max_value=0.05),
)
@settings(max_examples=60, deadline=None)
def test_two_level_anonymity_in_unit_interval(high, low, p_high):
    remaining = max(1.0 - high * p_high, 1e-9)
    value = two_level_anonymity(high, p_high, low, remaining / low, 10_000)
    assert 0.0 <= value <= 1.0


# -- attacker view ----------------------------------------------------------------------
#
# Hand-built graph instances go through the Monte-Carlo oracle's view as
# one-trial batches: the view the exact DP is checked against.


def view_of(malicious, destination_stage, destination_position, d):
    """The attacker view of one hand-built instance (``malicious[stage][slot]``)."""
    return AttackerViewBatch.from_layouts(
        StageLayoutBatch(
            malicious=np.array([malicious], dtype=bool),
            destination_stage=np.array([destination_stage]),
            destination_position=np.array([destination_position]),
            d=d,
            d_prime=len(malicious[0]),
        )
    )


def longest_run(values):
    starts, lengths = _longest_true_runs(np.array([values], dtype=bool))
    return int(starts[0]), int(lengths[0])


def test_sample_layout_shape_and_clean_source_stage():
    rng = np.random.default_rng(0)
    layouts = sample_stage_layout_batch(1, 8, 3, 0.3, rng)
    assert layouts.path_length == 8
    assert layouts.malicious.shape == (1, 9, 3)
    assert not layouts.malicious[0, 0].any()
    # The destination slot is never malicious.
    assert not layouts.malicious[
        0, layouts.destination_stage[0], layouts.destination_position[0]
    ]


def test_attacker_view_no_malicious_nodes():
    view = view_of([[False] * 3] * 5, destination_stage=2, destination_position=0, d=3)
    assert view.longest_chain_length[0] == 0
    assert not view.first_stage_decodable[0]
    assert not view.decodable_stage_before_destination[0]


def test_attacker_view_fully_compromised_first_stage():
    malicious = [[False] * 2] + [[True] * 2] + [[False] * 2] * 3
    view = view_of(malicious, destination_stage=3, destination_position=0, d=2)
    assert view.first_stage_decodable[0]
    assert view.decodable_stage_before_destination[0]
    assert view.longest_chain_length[0] >= 2


def test_attacker_view_exposure_comes_from_neighbours():
    # One malicious node in stage 2 exposes stages 1-3 (its parents, itself,
    # its children) but not the source stage.
    malicious = [[False, False], [False, False], [True, False], [False, False]]
    view = view_of(malicious, destination_stage=1, destination_position=0, d=2)
    exposed = view.exposed_stages[0]
    assert exposed[1] and exposed[2] and exposed[3]
    assert not exposed[0]
    assert view.longest_chain_length[0] == 3


def test_longest_true_run_edge_cases():
    assert longest_run([]) == (0, 0)
    assert longest_run([False, False]) == (0, 0)
    assert longest_run([True] * 7) == (0, 7)
    # Ties resolve to the first longest run.
    assert longest_run([True, True, False, True, True]) == (0, 2)
    assert longest_run([False, True, False, True]) == (1, 1)
    # A later, strictly longer run wins.
    assert longest_run([True, False, True, True]) == (2, 2)


def test_d_prime_smaller_than_d_is_never_decodable():
    # With d' < d a stage can never contain d malicious relays, so neither
    # Case-1 condition can fire even under a near-total compromise.
    rng = np.random.default_rng(21)
    for _ in range(50):
        layouts = sample_stage_layout_batch(1, 6, 4, 0.95, rng, d_prime=2)
        view = AttackerViewBatch.from_layouts(layouts)
        assert not view.first_stage_decodable[0]
        assert not view.decodable_stage_before_destination[0]


def test_d_prime_smaller_than_d_layout_shape():
    rng = np.random.default_rng(22)
    layouts = sample_stage_layout_batch(1, 5, 3, 0.5, rng, d_prime=2)
    assert layouts.d == 3 and layouts.d_prime == 2
    assert layouts.malicious.shape[2] == 2


@given(
    path_length=st.integers(min_value=1, max_value=12),
    d_prime=st.integers(min_value=1, max_value=6),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_destination_slot_is_never_malicious(path_length, d_prime, fraction, seed):
    rng = np.random.default_rng(seed)
    layouts = sample_stage_layout_batch(1, path_length, 2, fraction, rng, d_prime=d_prime)
    stage, position = layouts.destination_stage[0], layouts.destination_position[0]
    assert 1 <= stage <= path_length
    assert not layouts.malicious[0, stage, position]
    assert not layouts.malicious[0, 0].any()


# -- analytical formulas -------------------------------------------------------------------


def test_source_case1_probability_matches_f_power_d():
    assert source_case1_probability(0.2, 3) == pytest.approx(0.2**3)


def test_source_case1_with_redundancy_is_larger():
    assert source_case1_probability(0.2, 3, 5) > source_case1_probability(0.2, 3)


def test_destination_case1_increases_with_f_and_L():
    low = destination_case1_probability(0.05, 3, 8)
    high = destination_case1_probability(0.3, 3, 8)
    assert high > low
    longer = destination_case1_probability(0.3, 3, 16)
    assert longer > high


def test_expected_anonymity_decreases_with_chain_length():
    # The per-s assignments of Eqs. 8 and 11 (N=10000, L=8, d'=3, f=0.1).
    args = (10_000, 8, 3, 0.1)
    assert _source_anonymity_from_chain(1, *args) > _source_anonymity_from_chain(6, *args)
    assert _destination_anonymity_from_chain(1, *args) > _destination_anonymity_from_chain(
        6, *args
    )


# -- exact expectation -------------------------------------------------------------------


def test_simulation_low_f_gives_high_anonymity():
    result = exact_anonymity(10_000, 8, 3, 0.01)
    assert result.source_anonymity > 0.85
    assert result.destination_anonymity > 0.85


def test_simulation_anonymity_decreases_with_f():
    low = exact_anonymity(10_000, 8, 3, 0.05)
    high = exact_anonymity(10_000, 8, 3, 0.5)
    assert low.source_anonymity > high.source_anonymity
    assert low.destination_anonymity > high.destination_anonymity


def test_destination_anonymity_falls_faster_than_source():
    # Fig. 7's qualitative claim: discovering the destination only needs one
    # fully-compromised stage upstream of it, so it degrades faster.
    result = exact_anonymity(10_000, 8, 3, 0.4)
    assert result.destination_anonymity < result.source_anonymity
    assert result.destination_case1 > result.source_case1


def test_sweep_is_monotone_in_f():
    anonymities = [exact_anonymity(10_000, 8, 3, f).source_anonymity for f in (0.01, 0.2, 0.6)]
    assert anonymities[0] > anonymities[1] > anonymities[2]


def test_chaum_baseline_comparable_at_low_f():
    slicing = exact_anonymity(10_000, 8, 3, 0.05)
    chaum = exact_chaum_anonymity(10_000, 8, 0.05)
    assert abs(slicing.source_anonymity - chaum.source_anonymity) < 0.15
    assert chaum.destination_anonymity > 0.7
