"""The batched anonymity Monte-Carlo oracle: exact equivalence with its
per-trial reference (both in ``tests/oracles/anonymity.py``), vectorised
attacker-view correctness, and input validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import anonymity as oracle
from oracles.anonymity import (
    AttackerViewBatch,
    _longest_true_runs,
    sample_stage_layout_batch,
    simulate_anonymity_batch,
    simulate_anonymity_trials,
)
from oracles.chaum import simulate_chaum_anonymity_batch

#: Parameter grid for the exact-equivalence tests: includes the paper's
#: defaults, a redundant layout (d' > d), a degenerate short path and a
#: d' < d layout in which no stage can ever be decodable.
PARAMETER_POINTS = [
    dict(num_nodes=10_000, path_length=8, d=3, fraction_malicious=0.1),
    dict(num_nodes=10_000, path_length=8, d=3, fraction_malicious=0.4, d_prime=6),
    dict(num_nodes=10_000, path_length=2, d=2, fraction_malicious=0.5),
    dict(num_nodes=500, path_length=12, d=4, fraction_malicious=0.3, d_prime=2),
]


# -- exact statistical equivalence -------------------------------------------------


@pytest.mark.parametrize("kwargs", PARAMETER_POINTS)
def test_batched_engine_matches_scalar_per_trial(kwargs):
    scalar = oracle.scalar_anonymity_trials(
        **kwargs, trials=400, rng=np.random.default_rng(42)
    )
    batched = simulate_anonymity_trials(**kwargs, trials=400, rng=np.random.default_rng(42))
    # Bit-identical per-trial values, not approximate agreement.
    assert np.array_equal(scalar.source_anonymity, batched.source_anonymity)
    assert np.array_equal(scalar.destination_anonymity, batched.destination_anonymity)
    assert np.array_equal(scalar.source_case1, batched.source_case1)
    assert np.array_equal(scalar.destination_case1, batched.destination_case1)


def test_batched_result_equals_scalar_result():
    kwargs = dict(num_nodes=10_000, path_length=8, d=3, fraction_malicious=0.2)
    scalar = oracle.scalar_anonymity(**kwargs, trials=300, rng=np.random.default_rng(9))
    batched = simulate_anonymity_batch(**kwargs, trials=300, rng=np.random.default_rng(9))
    assert scalar == batched


def test_single_trial_works_in_both_engines():
    kwargs = dict(num_nodes=100, path_length=4, d=2, fraction_malicious=0.3)
    scalar = oracle.scalar_anonymity_trials(**kwargs, trials=1, rng=np.random.default_rng(0))
    batched = simulate_anonymity_trials(**kwargs, trials=1, rng=np.random.default_rng(0))
    assert scalar.result() == batched.result()
    assert scalar.trials == 1


# -- trials validation (both paths + baseline) -------------------------------------


@pytest.mark.parametrize("trials", [0, -5])
def test_scalar_path_rejects_non_positive_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        oracle.scalar_anonymity(10_000, 8, 3, 0.1, trials=trials)


@pytest.mark.parametrize("trials", [0, -1])
def test_batched_path_rejects_non_positive_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        simulate_anonymity_batch(10_000, 8, 3, 0.1, trials=trials)


def test_chaum_baseline_rejects_non_positive_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        simulate_chaum_anonymity_batch(10_000, 8, 0.1, trials=0)


# -- vectorised attacker view ------------------------------------------------------


@pytest.mark.parametrize(
    "path_length,d,d_prime,fraction",
    [(8, 3, 3, 0.3), (8, 3, 6, 0.15), (5, 4, 2, 0.6), (1, 2, 2, 0.5)],
)
def test_batch_view_matches_scalar_view_per_trial(path_length, d, d_prime, fraction):
    rng = np.random.default_rng(123)
    layouts = sample_stage_layout_batch(
        trials=64,
        path_length=path_length,
        d=d,
        fraction_malicious=fraction,
        rng=rng,
        d_prime=d_prime,
    )
    views = AttackerViewBatch.from_layouts(layouts)
    for trial in range(layouts.trials):
        reference = oracle.AttackerView.from_layout(oracle.layout_of(layouts, trial))
        assert tuple(views.exposed_stages[trial]) == reference.exposed_stages
        assert views.longest_chain_start[trial] == reference.longest_chain_start
        assert views.longest_chain_length[trial] == reference.longest_chain_length
        assert views.first_stage_decodable[trial] == reference.first_stage_decodable
        assert (
            views.decodable_stage_before_destination[trial]
            == reference.decodable_stage_before_destination
        )


def test_batch_sampler_rejects_non_positive_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sample_stage_layout_batch(0, 8, 3, 0.1, np.random.default_rng(0))


def test_batch_sampler_source_stage_and_destination_clean():
    rng = np.random.default_rng(5)
    layouts = sample_stage_layout_batch(200, 6, 2, 1.0, rng, d_prime=4)
    assert not layouts.malicious[:, 0, :].any()
    trials = np.arange(layouts.trials)
    assert not layouts.malicious[
        trials, layouts.destination_stage, layouts.destination_position
    ].any()
    # With f=1.0 every other relay slot is malicious.
    assert layouts.malicious[:, 1:, :].sum() == 200 * 6 * 4 - 200


# -- vectorised longest-run kernel -------------------------------------------------


def test_longest_true_runs_zero_columns():
    starts, lengths = _longest_true_runs(np.zeros((3, 0), dtype=bool))
    assert starts.tolist() == [0, 0, 0]
    assert lengths.tolist() == [0, 0, 0]


def test_longest_true_runs_rejects_wrong_rank():
    with pytest.raises(ValueError, match="2-D"):
        _longest_true_runs(np.zeros(4, dtype=bool))


@given(
    rows=st.lists(
        st.lists(st.booleans(), min_size=1, max_size=12),
        min_size=1,
        max_size=8,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=80, deadline=None)
def test_longest_true_runs_matches_scalar_helper(rows):
    mask = np.array(rows, dtype=bool)
    starts, lengths = _longest_true_runs(mask)
    for index, row in enumerate(rows):
        assert (starts[index], lengths[index]) == oracle._longest_true_run(row)
