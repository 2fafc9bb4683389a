"""The Chaum-mix Monte-Carlo (Fig. 7): the oracle for the exact hop DP.

All trials are sampled as one ``(trials, hops)`` boolean mask
(:func:`_sample_malicious`), the longest compromised runs come out of the
shared :func:`~oracles.anonymity._longest_true_runs` kernel, and the entropy
assignment (a pure function of the run length ``s`` once the parameter point
is fixed) is tabulated once and gathered per trial.  Its own reference is the
per-trial chain walk below, kept close to the prose of
:mod:`repro.baselines.chaum`: a malicious first (last) mix exposes the source
(destination); otherwise the assignment follows the longest compromised run.
Both draw through the same sampler, so a seed gives them the same trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.chaum import ChaumAnonymityResult, _chain_anonymity_from_run

from .anonymity import _longest_true_run, _longest_true_runs


@dataclass(frozen=True)
class ChaumTrialValues:
    """Per-trial outcomes of one Monte-Carlo run, before averaging."""

    source_anonymity: np.ndarray
    destination_anonymity: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.source_anonymity.size)

    def result(self) -> ChaumAnonymityResult:
        return ChaumAnonymityResult(
            source_anonymity=float(self.source_anonymity.mean()),
            destination_anonymity=float(self.destination_anonymity.mean()),
        )


def _sample_malicious(
    trials: int, path_length: int, fraction_malicious: float, rng: np.random.Generator
) -> np.ndarray:
    """All trials' malicious masks in one ``(trials, hops)`` draw.

    ``Generator.random`` consumes its stream identically whether drawn in
    bulk or row by row, so this sampler is bit-compatible with the historical
    per-trial ``rng.random(path_length)`` loop.
    """
    return rng.random((trials, path_length)) < fraction_malicious


def simulate_chaum_trials(
    num_nodes: int,
    path_length: int,
    fraction_malicious: float,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
) -> ChaumTrialValues:
    """Run one parameter point through the batched sampler; per-trial values."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng() if rng is None else rng
    malicious = _sample_malicious(trials, path_length, fraction_malicious, rng)
    clean_nodes = max(int(num_nodes * (1.0 - fraction_malicious)), 1)
    _starts, lengths = _longest_true_runs(malicious)
    # For a fixed parameter point the assignment is a pure function of the
    # longest run length s in {0, ..., L}; tabulate once, gather per trial.
    table = np.array(
        [
            _chain_anonymity_from_run(int(s), num_nodes, clean_nodes, path_length)
            for s in range(path_length + 1)
        ]
    )
    values = table[lengths]
    source = np.where(malicious[:, 0], 0.0, values)
    destination = np.where(malicious[:, -1], 0.0, values)
    return ChaumTrialValues(source_anonymity=source, destination_anonymity=destination)


def simulate_chaum_anonymity_batch(*args, **kwargs) -> ChaumAnonymityResult:
    """The averages of :func:`simulate_chaum_trials`."""
    return simulate_chaum_trials(*args, **kwargs).result()


# -- the per-trial chain walk ------------------------------------------------------


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


def scalar_chaum_trials(
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
