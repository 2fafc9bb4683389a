"""The per-trial chain-walk reference for the Chaum-mix baseline (Fig. 7).

A malicious first (last) mix exposes the source (destination); otherwise the
entropy assignment follows the longest compromised run, found one trial at a
time.  It draws through the shipped sampler, so a seed gives it the same
trials as :func:`~repro.baselines.chaum.simulate_chaum_trials`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.chaum import (
    ChaumAnonymityResult,
    ChaumTrialValues,
    _chain_anonymity_from_run,
    _sample_malicious,
)

from .anonymity import _longest_true_run


def chain_source_anonymity(
    malicious: np.ndarray, num_nodes: int, clean_nodes: int, path_length: int
) -> float:
    if malicious[0]:
        return 0.0
    _start, length = _longest_true_run(malicious)
    return _chain_anonymity_from_run(length, num_nodes, clean_nodes, path_length)


def chain_destination_anonymity(
    malicious: np.ndarray, num_nodes: int, clean_nodes: int, path_length: int
) -> float:
    if malicious[-1]:
        return 0.0
    _start, length = _longest_true_run(malicious)
    return _chain_anonymity_from_run(length, num_nodes, clean_nodes, path_length)


def simulate_chaum_trials(
    num_nodes: int,
    path_length: int,
    fraction_malicious: float,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
) -> ChaumTrialValues:
    """Per-trial values of one parameter point, one chain at a time."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng() if rng is None else rng
    malicious = _sample_malicious(trials, path_length, fraction_malicious, rng)
    clean = max(int(num_nodes * (1.0 - fraction_malicious)), 1)
    source = np.array(
        [chain_source_anonymity(row, num_nodes, clean, path_length) for row in malicious]
    )
    destination = np.array(
        [chain_destination_anonymity(row, num_nodes, clean, path_length) for row in malicious]
    )
    return ChaumTrialValues(source_anonymity=source, destination_anonymity=destination)


def simulate_chaum_anonymity(*args, **kwargs) -> ChaumAnonymityResult:
    """The averages of :func:`simulate_chaum_trials`."""
    return simulate_chaum_trials(*args, **kwargs).result()
