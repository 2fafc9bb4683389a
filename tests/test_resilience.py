"""Tests for the churn-resilience analysis and transfer simulation."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.churn import PLANETLAB_CHURN, STABLE_CHURN, ChurnModel
from repro.core.errors import ChurnError, SimulationError
from repro.resilience import transfer
from repro.resilience.analysis import (
    onion_erasure_success_probability,
    path_survival_probability,
    slicing_success_probability,
    stage_success_probability,
    standard_onion_success_probability,
    sweep_redundancy,
)
from repro.resilience.transfer import (
    onion_erasure_transfer_succeeds,
    packet_level_success,
    simulate_transfers,
    slicing_transfer_succeeds,
    standard_onion_transfer_succeeds,
)


# -- analysis (Eqs. 6, 7) ---------------------------------------------------------------


def test_no_failures_means_certain_success():
    assert slicing_success_probability(0.0, 5, 2, 3) == pytest.approx(1.0)
    assert onion_erasure_success_probability(0.0, 5, 2, 3) == pytest.approx(1.0)
    assert standard_onion_success_probability(0.0, 5) == pytest.approx(1.0)


def test_certain_failure_means_zero_success():
    assert slicing_success_probability(1.0, 5, 2, 4) == pytest.approx(0.0)
    assert onion_erasure_success_probability(1.0, 5, 2, 4) == pytest.approx(0.0)


def test_no_redundancy_reduces_to_simple_products():
    p = 0.2
    # With d' = d the slicing scheme needs every node alive (same as d paths
    # each of length L for the erasure scheme when d = 1).
    assert slicing_success_probability(p, 4, 2, 2) == pytest.approx((1 - p) ** 8)
    assert path_survival_probability(p, 4) == pytest.approx((1 - p) ** 4)
    assert standard_onion_success_probability(p, 4) == pytest.approx((1 - p) ** 4)


@given(
    p=st.floats(min_value=0.01, max_value=0.5),
    d_prime=st.integers(min_value=3, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_slicing_beats_onion_erasure_for_same_redundancy(p, d_prime):
    # The paper's headline analytical result (Fig. 16).
    d, path_length = 2, 5
    slicing = slicing_success_probability(p, path_length, d, d_prime)
    erasure = onion_erasure_success_probability(p, path_length, d, d_prime)
    assert slicing >= erasure - 1e-12


def test_success_probability_monotone_in_redundancy():
    values = [
        slicing_success_probability(0.3, 5, 2, d_prime) for d_prime in range(2, 8)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_stage_success_probability_bounds():
    assert 0.0 <= stage_success_probability(0.3, 2, 4) <= 1.0
    with pytest.raises(ValueError):
        stage_success_probability(1.5, 2, 4)
    with pytest.raises(ValueError):
        stage_success_probability(0.5, 3, 2)


def test_sweep_redundancy_rows():
    points = sweep_redundancy(0.1, 5, 2, [2, 3, 4])
    assert [point.redundancy for point in points] == [0.0, 0.5, 1.0]
    assert points[-1].information_slicing > points[-1].onion_erasure


# -- churn model -----------------------------------------------------------------------


def test_churn_model_failure_probability_monotone_in_time():
    model = PLANETLAB_CHURN
    assert model.failure_probability(0) == pytest.approx(0.0)
    assert model.failure_probability(1800) < model.failure_probability(7200)


def test_churn_model_validation():
    with pytest.raises(ChurnError):
        ChurnModel(failure_prone_fraction=1.5)
    with pytest.raises(ChurnError):
        ChurnModel(short_mean_seconds=-1)
    with pytest.raises(ChurnError):
        PLANETLAB_CHURN.failure_probability(-5)


def test_stable_churn_rarely_fails():
    failures = STABLE_CHURN.sample_failures(1000, 1800, np.random.default_rng(0))
    assert failures.sum() == 0


# -- transfer Monte Carlo -----------------------------------------------------------------


def test_success_predicates():
    stage_failures = np.zeros((5, 3), dtype=bool)
    assert slicing_transfer_succeeds(stage_failures, 2)
    stage_failures[2, :2] = True
    assert slicing_transfer_succeeds(stage_failures, 1)
    assert not slicing_transfer_succeeds(stage_failures, 2)

    path_failures = np.zeros((3, 5), dtype=bool)
    assert onion_erasure_transfer_succeeds(path_failures, 2)
    path_failures[0, 1] = True
    path_failures[1, 2] = True
    assert not onion_erasure_transfer_succeeds(path_failures, 2)

    assert standard_onion_transfer_succeeds(np.zeros(5, dtype=bool))
    assert not standard_onion_transfer_succeeds(np.array([False, True, False]))


def test_simulate_transfers_orders_schemes_correctly():
    result = simulate_transfers(
        PLANETLAB_CHURN,
        session_seconds=30 * 60,
        path_length=5,
        d=2,
        d_prime=4,
        trials=400,
        rng=np.random.default_rng(7),
    )
    assert result.information_slicing > result.onion_erasure
    assert result.information_slicing > result.standard_onion
    assert 0.0 <= result.onion_erasure <= 1.0


def test_simulate_transfers_improves_with_redundancy():
    kwargs = dict(
        churn=PLANETLAB_CHURN,
        session_seconds=30 * 60,
        path_length=5,
        d=2,
        trials=400,
    )
    low = simulate_transfers(d_prime=2, rng=np.random.default_rng(8), **kwargs)
    high = simulate_transfers(d_prime=5, rng=np.random.default_rng(9), **kwargs)
    assert high.information_slicing > low.information_slicing


def test_packet_level_agrees_with_model_success_case():
    # One failure per stage with d'=3, d=2 is survivable.
    failures = [(1, 0), (2, 1), (3, 2)]
    assert packet_level_success(3, 2, 3, failures)


def test_packet_level_agrees_with_model_failure_case():
    # Two failures in the same stage with d'=3, d=2: the stage drops below d.
    failures = [(2, 0), (2, 1), (2, 2)]
    assert not packet_level_success(3, 2, 3, failures)


def test_packet_level_reports_unplaceable_destination(monkeypatch):
    # A source whose graphs never put the destination in the last stage: the
    # search must fail with a named error (not an assert stripped by -O).
    class NeverLastStage:
        def __init__(self, *args, **kwargs):
            pass

        def establish_flow(self, relays, destination):
            return SimpleNamespace(graph=SimpleNamespace(destination_stage=1))

    monkeypatch.setattr(transfer, "Source", NeverLastStage)
    with pytest.raises(SimulationError, match="path_length=3, d=2, d_prime=3, seed=5"):
        packet_level_success(3, 2, 3, [(1, 0)])
