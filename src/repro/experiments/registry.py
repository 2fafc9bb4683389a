"""Declarative experiment registry: every figure, table and ablation by name.

An :class:`Experiment` describes one evaluation artifact (a paper figure, a
table, or an ablation) as a set of *independent trials*:

* ``build_trials(scale)`` expands the experiment's declarative parameters
  into a list of JSON-serialisable trial dictionaries.  ``scale`` trades
  precision for speed exactly as before (1.0 reproduces the paper's trial
  counts).
* ``run_trial(params, rng)`` executes one trial with a dedicated,
  deterministically derived random generator and returns a JSON-serialisable
  result dictionary.
* ``reduce(trials, results)`` folds the per-trial outputs (in trial order)
  back into the row dictionaries the paper plots.

Keeping trials independent — no shared RNG, no shared mutable state — is
what lets :mod:`~repro.experiments.runner` fan them out over worker
processes while guaranteeing bit-identical results for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Default base seed mixed into every experiment's SeedSequence root.
DEFAULT_BASE_SEED = 20070411


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: declarative trials plus a reduction."""

    name: str
    title: str
    build_trials: Callable[[float], list[dict]]
    run_trial: Callable[[dict, np.random.Generator], dict]
    reduce: Callable[[list[dict], list[dict]], list[dict]] | None = None
    #: True when the rows are wall-clock timings of this host (``microbench``,
    #: ``ablation_transforms``).  Timings differ per run, so the runner never
    #: serves them from cache.
    wall_clock: bool = False
    #: Overlay transport backends this experiment can run on.  Experiments
    #: that drive the overlay substrate (figs. 11-15) also accept ``"aio"``;
    #: everything else is simulator-only and rejects ``--backend aio``.
    backends: tuple[str, ...] = ("sim",)
    #: Schemes the experiment can be restricted to with ``--scheme``
    #: (figs. 11-15 run any single scheme through their unified drivers).
    #: Empty means the experiment has no per-scheme mode and rejects
    #: ``--scheme``.
    schemes: tuple[str, ...] = ()

    def rows(self, trials: list[dict], results: list[dict]) -> list[dict]:
        """Reduce per-trial results (in trial order) to plottable rows."""
        if self.reduce is None:
            return list(results)
        return self.reduce(trials, results)


#: All registered experiments by name.  Populated by importing
#: :mod:`~repro.experiments.figures` and :mod:`~repro.experiments.ablations`.
REGISTRY: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add ``experiment`` to the registry; names must be unique."""
    if experiment.name in REGISTRY:
        raise ValueError(f"experiment {experiment.name!r} is already registered")
    REGISTRY[experiment.name] = experiment
    return experiment


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment, loading the definitions if needed."""
    _ensure_definitions_loaded()
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {name!r} (known: {known})") from None


def experiment_names() -> list[str]:
    """Sorted names of every registered experiment."""
    _ensure_definitions_loaded()
    return sorted(REGISTRY)


def _ensure_definitions_loaded() -> None:
    # Importing the definition modules runs their register() calls.
    from . import ablations, distinguishability, figures  # noqa: F401
