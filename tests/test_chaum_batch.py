"""The vectorised Chaum-mix Monte-Carlo oracle: bit-identity with its per-trial
chain walk (both in ``tests/oracles/chaum.py``) and stream-compatibility with
the historical per-trial sampler."""

import numpy as np
import pytest

from repro.anonymity.metrics import two_level_anonymity
from oracles import chaum as oracle
from oracles.chaum import simulate_chaum_anonymity_batch, simulate_chaum_trials

POINTS = [
    # (num_nodes, path_length, fraction_malicious)
    (10_000, 8, 0.001),
    (10_000, 8, 0.1),
    (10_000, 8, 0.4),
    (10_000, 8, 0.9),
    (500, 3, 0.25),
    (10_000, 16, 0.05),
]


@pytest.mark.parametrize("num_nodes,path_length,fraction", POINTS)
def test_batched_engine_is_bit_identical_to_scalar(num_nodes, path_length, fraction):
    seed = int(fraction * 1000) + path_length
    scalar = oracle.scalar_chaum_trials(
        num_nodes, path_length, fraction, trials=400, rng=np.random.default_rng(seed)
    )
    batched = simulate_chaum_trials(
        num_nodes, path_length, fraction, trials=400, rng=np.random.default_rng(seed)
    )
    assert np.array_equal(scalar.source_anonymity, batched.source_anonymity)
    assert np.array_equal(scalar.destination_anonymity, batched.destination_anonymity)


def test_engines_match_the_historical_per_trial_implementation():
    """The shared bulk sampler consumes the RNG stream exactly like the old
    per-trial ``rng.random(path_length)`` loop, so historical seeds keep
    their values."""
    num_nodes, path_length, fraction, trials, seed = 10_000, 8, 0.2, 250, 77
    clean = max(int(num_nodes * (1.0 - fraction)), 1)
    rng = np.random.default_rng(seed)
    src_total = dst_total = 0.0
    for _ in range(trials):
        malicious = rng.random(path_length) < fraction
        src_total += oracle.chain_source_anonymity(malicious, num_nodes, clean, path_length)
        dst_total += oracle.chain_destination_anonymity(
            malicious, num_nodes, clean, path_length
        )
    legacy_src = src_total / trials
    legacy_dst = dst_total / trials
    result = simulate_chaum_anonymity_batch(
        num_nodes, path_length, fraction, trials, rng=np.random.default_rng(seed)
    )
    assert result.source_anonymity == pytest.approx(legacy_src, abs=1e-12)
    assert result.destination_anonymity == pytest.approx(legacy_dst, abs=1e-12)


def test_rng_state_advances_identically_in_both_engines():
    # Both engines draw through one sampler, so they must leave a shared
    # stream in the same state.
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    oracle.scalar_chaum_trials(1000, 8, 0.3, trials=123, rng=rng_a)
    simulate_chaum_trials(1000, 8, 0.3, trials=123, rng=rng_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_edge_cases_match():
    for fraction in (0.0, 1.0):
        seed = 31
        scalar = oracle.scalar_chaum_trials(
            100, 4, fraction, trials=50, rng=np.random.default_rng(seed)
        )
        batched = simulate_chaum_trials(
            100, 4, fraction, trials=50, rng=np.random.default_rng(seed)
        )
        assert np.array_equal(scalar.source_anonymity, batched.source_anonymity)
        assert np.array_equal(
            scalar.destination_anonymity, batched.destination_anonymity
        )
    # Fully malicious chains expose both endpoints.
    exposed = simulate_chaum_anonymity_batch(100, 4, 1.0, trials=10)
    assert exposed.source_anonymity == 0.0
    assert exposed.destination_anonymity == 0.0
    # A fully clean chain leaves anonymity at the uniform-entropy value.
    clean = simulate_chaum_anonymity_batch(100, 4, 0.0, trials=10)
    expected = two_level_anonymity(0, 0.0, 100, 1.0 / 100, 100)
    assert clean.source_anonymity == pytest.approx(expected)


def test_engine_validation():
    with pytest.raises(ValueError):
        simulate_chaum_trials(100, 4, 0.1, trials=0)
