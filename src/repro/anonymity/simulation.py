"""Monte-Carlo anonymity evaluation (§6.2, §6.3).

For each trial we sample a forwarding-graph instance from an overlay with a
fraction ``f`` of colluding malicious nodes, derive the attacker's view, and
apply the probability assignments of Appendix A to compute source and
destination anonymity via the entropy metric (Eq. 5).  The reported value is
the average over many trials, exactly as in the paper (1000 trials per data
point).

:func:`simulate_anonymity_batch` is the engine behind Figs. 7-10: all
trials are sampled as one ``(trials, L, d')`` boolean array
(:func:`~repro.anonymity.attacker.sample_stage_layout_batch`), and the
exposed-stage masks, longest consecutive-exposed runs and Case-1
decodability come out of batched numpy kernels with no per-trial Python
objects.  The Appendix-A entropy assignment depends only on the longest chain
length ``s`` once the parameter point is fixed, so it is evaluated once per
distinct ``s`` (at most ``L + 2`` values) and gathered per trial.

The per-trial reference — one stage layout and attacker view per trial,
written to read like the appendix — lives in ``tests/oracles/anonymity.py``
and draws through the same sampler, so the same seed yields bit-identical
per-trial values from both — asserted by
``tests/test_anonymity_batch.py::test_batched_engine_matches_scalar_per_trial``.

The four figure sweeps (malicious fraction, split factor, path length,
redundancy) are thin declarative wrappers over the shared
:func:`sweep_anonymity` driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .attacker import AttackerViewBatch, sample_stage_layout_batch
from .metrics import two_level_anonymity


@dataclass(frozen=True)
class AnonymityResult:
    """Average anonymity over a batch of Monte-Carlo trials."""

    source_anonymity: float
    destination_anonymity: float
    trials: int
    source_case1_rate: float
    destination_case1_rate: float


@dataclass(frozen=True)
class AnonymityTrialValues:
    """Per-trial outcomes of one Monte-Carlo run, before averaging.

    Exposing the raw per-trial arrays is what lets the test suite assert
    *exact* statistical equivalence with the per-trial reference: same seed
    in, same array of per-trial anonymity values out.
    """

    source_anonymity: np.ndarray
    destination_anonymity: np.ndarray
    source_case1: np.ndarray
    destination_case1: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.source_anonymity.size)

    def result(self) -> AnonymityResult:
        """Reduce the per-trial values to the averages the paper plots."""
        return AnonymityResult(
            source_anonymity=float(self.source_anonymity.mean()),
            destination_anonymity=float(self.destination_anonymity.mean()),
            trials=self.trials,
            source_case1_rate=float(self.source_case1.mean()),
            destination_case1_rate=float(self.destination_case1.mean()),
        )


def _validate_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


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


# -- engine ----------------------------------------------------------------------


def simulate_anonymity_trials(
    num_nodes: int,
    path_length: int,
    d: int,
    fraction_malicious: float,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
    d_prime: int | None = None,
) -> AnonymityTrialValues:
    """Run one parameter point and return the raw per-trial values.

    Parameters mirror Table 1: ``num_nodes`` is N, ``path_length`` is L,
    ``d`` the split factor, ``fraction_malicious`` is f, and ``d_prime``
    enables the redundancy study of Fig. 10.
    """
    _validate_trials(trials)
    rng = np.random.default_rng() if rng is None else rng
    layouts = sample_stage_layout_batch(
        trials=trials,
        path_length=path_length,
        d=d,
        fraction_malicious=fraction_malicious,
        rng=rng,
        d_prime=d_prime,
    )
    views = AttackerViewBatch.from_layouts(layouts)
    d_prime = layouts.d_prime
    # For a fixed parameter point the Appendix-A assignment is a pure function
    # of the longest exposed chain length s in {0, ..., L + 1}, so tabulating
    # it once and gathering per trial is exact — and avoids any per-trial
    # Python or large transcendental arrays.
    chain_lengths = np.arange(path_length + 2)
    source_table = np.array(
        [
            _source_anonymity_from_chain(
                int(s), num_nodes, path_length, d_prime, fraction_malicious
            )
            for s in chain_lengths
        ]
    )
    destination_table = np.array(
        [
            _destination_anonymity_from_chain(
                int(s), num_nodes, path_length, d_prime, fraction_malicious
            )
            for s in chain_lengths
        ]
    )
    s = views.longest_chain_length
    source = np.where(views.first_stage_decodable, 0.0, source_table[s])
    destination = np.where(
        views.decodable_stage_before_destination, 0.0, destination_table[s]
    )
    return AnonymityTrialValues(
        source_anonymity=source,
        destination_anonymity=destination,
        source_case1=views.first_stage_decodable.copy(),
        destination_case1=views.decodable_stage_before_destination.copy(),
    )


def simulate_anonymity_batch(
    num_nodes: int,
    path_length: int,
    d: int,
    fraction_malicious: float,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
    d_prime: int | None = None,
) -> AnonymityResult:
    """Run the paper's Monte-Carlo anonymity experiment for one parameter point.

    The averages of :func:`simulate_anonymity_trials`; all trials are
    evaluated as numpy arrays in one pass.
    """
    return simulate_anonymity_trials(
        num_nodes, path_length, d, fraction_malicious, trials, rng, d_prime
    ).result()


# -- sweeps ----------------------------------------------------------------------


def sweep_anonymity(
    points: list[tuple[Any, dict]],
    trials: int = 1000,
    seed: int = 0,
) -> list[tuple[Any, AnonymityResult]]:
    """Shared driver behind the Fig. 7-10 sweeps.

    ``points`` is a list of ``(key, kwargs)`` pairs: ``key`` is the x-axis
    value reported back, ``kwargs`` the :func:`simulate_anonymity_batch`
    parameters of that point.  Each point gets its own deterministic
    generator (``seed + index``), matching the historical behaviour of the
    individual sweep loops this driver replaced.
    """
    _validate_trials(trials)
    results = []
    for index, (key, kwargs) in enumerate(points):
        rng = np.random.default_rng(seed + index)
        results.append((key, simulate_anonymity_batch(trials=trials, rng=rng, **kwargs)))
    return results


def sweep_malicious_fraction(
    num_nodes: int,
    path_length: int,
    d: int,
    fractions: list[float],
    trials: int = 1000,
    seed: int = 1,
    d_prime: int | None = None,
) -> list[tuple[float, AnonymityResult]]:
    """Fig. 7 sweep: anonymity as a function of the malicious fraction."""
    points = [
        (
            fraction,
            {
                "num_nodes": num_nodes,
                "path_length": path_length,
                "d": d,
                "fraction_malicious": fraction,
                "d_prime": d_prime,
            },
        )
        for fraction in fractions
    ]
    return sweep_anonymity(points, trials=trials, seed=seed)


def sweep_split_factor(
    num_nodes: int,
    path_length: int,
    split_factors: list[int],
    fraction_malicious: float,
    trials: int = 1000,
    seed: int = 2,
) -> list[tuple[int, AnonymityResult]]:
    """Fig. 8 sweep: anonymity as a function of the split factor d."""
    points = [
        (
            d,
            {
                "num_nodes": num_nodes,
                "path_length": path_length,
                "d": d,
                "fraction_malicious": fraction_malicious,
            },
        )
        for d in split_factors
    ]
    return sweep_anonymity(points, trials=trials, seed=seed)


def sweep_path_length(
    num_nodes: int,
    path_lengths: list[int],
    d: int,
    fraction_malicious: float,
    trials: int = 1000,
    seed: int = 3,
) -> list[tuple[int, AnonymityResult]]:
    """Fig. 9 sweep: anonymity as a function of the path length L."""
    points = [
        (
            path_length,
            {
                "num_nodes": num_nodes,
                "path_length": path_length,
                "d": d,
                "fraction_malicious": fraction_malicious,
            },
        )
        for path_length in path_lengths
    ]
    return sweep_anonymity(points, trials=trials, seed=seed)


def sweep_redundancy(
    num_nodes: int,
    path_length: int,
    d: int,
    d_primes: list[int],
    fraction_malicious: float,
    trials: int = 1000,
    seed: int = 4,
) -> list[tuple[float, AnonymityResult]]:
    """Fig. 10 sweep: anonymity as a function of added redundancy (d'-d)/d."""
    points = [
        (
            (d_prime - d) / d,
            {
                "num_nodes": num_nodes,
                "path_length": path_length,
                "d": d,
                "fraction_malicious": fraction_malicious,
                "d_prime": d_prime,
            },
        )
        for d_prime in d_primes
    ]
    return sweep_anonymity(points, trials=trials, seed=seed)
