"""Chaum-mix anonymity baseline (the comparison curves of Fig. 7).

The paper compares information slicing's anonymity against classic Chaum
mixes / onion routing: a single chain of ``L`` mix nodes chosen from the same
overlay, a fraction ``f`` of which is malicious and colluding.  A malicious
mix knows its predecessor and successor; because layered encryption hides
everything else, colluding mixes can stitch their observations together only
when they are adjacent on the chain.

The model mirrors the information-slicing attacker analysis with ``d = 1``:

* if the first mix is malicious the source is exposed (it is the previous
  hop of a compromised node and there is nothing upstream of it);
* if the last mix is malicious the destination is exposed;
* otherwise the attacker's suspicion concentrates on the neighbours of its
  longest compromised run, and the entropy metric quantifies what remains.

:func:`simulate_chaum_anonymity_batch` is the Monte-Carlo behind Fig. 7's
Chaum curves, mirroring :mod:`repro.anonymity.simulation`: all trials are
sampled as one ``(trials, hops)`` boolean mask (:func:`_sample_malicious`),
the longest compromised runs come out of the shared
:func:`~repro.anonymity.attacker._longest_true_runs` kernel, and the entropy
assignment (a pure function of the run length ``s`` once the parameter point
is fixed) is tabulated once and gathered per trial.  The per-trial chain-walk
reference, kept close to the prose above, lives in
``tests/oracles/chaum.py``; it draws through the same sampler, so the same
seed yields bit-identical per-trial values from both — asserted by
``tests/test_chaum_batch.py::test_batched_engine_is_bit_identical_to_scalar``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..anonymity.attacker import _longest_true_runs
from ..anonymity.metrics import two_level_anonymity


@dataclass(frozen=True)
class ChaumAnonymityResult:
    """Average anonymity of the Chaum-mix baseline over many trials."""

    source_anonymity: float
    destination_anonymity: float
    trials: int


@dataclass(frozen=True)
class ChaumTrialValues:
    """Per-trial outcomes of one Monte-Carlo run, before averaging.

    Exposing the raw arrays lets the tests assert *exact* equivalence with
    the per-trial reference: same seed in, same per-trial values out.
    """

    source_anonymity: np.ndarray
    destination_anonymity: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.source_anonymity.size)

    def result(self) -> ChaumAnonymityResult:
        return ChaumAnonymityResult(
            source_anonymity=float(self.source_anonymity.mean()),
            destination_anonymity=float(self.destination_anonymity.mean()),
            trials=self.trials,
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


# -- entropy assignments as functions of the longest compromised run -------------


def _chain_anonymity_from_run(
    length: int, num_nodes: int, clean_nodes: int, path_length: int
) -> float:
    """Anonymity of the chain's hidden endpoint given the longest run ``length``.

    Source and destination use the same assignment (the chain is symmetric):
    the node immediately upstream (downstream) of the run is the prime
    suspect; it is the true endpoint only if the run touches the chain's end.
    """
    if length == 0:
        return two_level_anonymity(0, 0.0, clean_nodes, 1.0 / clean_nodes, num_nodes)
    p_suspect = 1.0 / max(path_length - length, 1)
    others = max(clean_nodes - 1, 1)
    p_other = (1.0 - p_suspect) / others
    return two_level_anonymity(1, p_suspect, others, p_other, num_nodes)


# -- engine ----------------------------------------------------------------------


def simulate_chaum_trials(
    num_nodes: int,
    path_length: int,
    fraction_malicious: float,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
) -> ChaumTrialValues:
    """Run one parameter point and return the raw per-trial values."""
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


def simulate_chaum_anonymity_batch(
    num_nodes: int,
    path_length: int,
    fraction_malicious: float,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
) -> ChaumAnonymityResult:
    """Monte-Carlo anonymity of a Chaum-mix chain: the averages of
    :func:`simulate_chaum_trials`, all trials evaluated in one numpy pass."""
    return simulate_chaum_trials(
        num_nodes, path_length, fraction_malicious, trials, rng
    ).result()


def sweep_chaum_anonymity(
    num_nodes: int,
    path_length: int,
    fractions: list[float],
    trials: int = 1000,
    seed: int = 11,
) -> list[tuple[float, ChaumAnonymityResult]]:
    """Fig. 7's Chaum-mix comparison curves across malicious fractions."""
    results = []
    for index, fraction in enumerate(fractions):
        rng = np.random.default_rng(seed + index)
        results.append(
            (
                fraction,
                simulate_chaum_anonymity_batch(
                    num_nodes, path_length, fraction, trials, rng
                ),
            )
        )
    return results
