"""Experiment runner: deterministic fan-out on one host plus JSON artifacts.

The runner turns a registered :class:`~repro.experiments.registry.Experiment`
into rows:

1. the run request becomes a :class:`Job` — ``(name, scale, seed,
   backend)``, validated on construction — whose ``build_trials(scale)``
   produces the trial list;
2. the experiment's seed is expanded with ``np.random.SeedSequence.spawn``
   into one child sequence per trial, so every trial's randomness is
   independent of scheduling — running with 1 worker or 16 produces the
   same stream for trial *i*;
3. trials run inline (``workers=1``) or fan out over a
   ``multiprocessing`` pool, and results are re-assembled in trial order;
4. ``reduce`` folds them into rows, which are written as a canonical JSON
   artifact (fixed separators, deterministic key order) under the output
   directory and re-used as a cache on the next run.  For experiments whose
   trials are pure functions of their RNG (everything except the wall-clock
   timing experiments, which are marked ``wall_clock=True`` and never
   served from cache), the artifact is byte-identical for a given
   ``(name, scale, seed)`` regardless of worker count.

Worker processes receive ``(run_trial, index, params, seed)`` payloads.
Every ``run_trial`` is a module-level function, which pickles by reference
under the fork, spawn and forkserver start methods alike, so workers never
consult the registry.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .registry import DEFAULT_BASE_SEED, Experiment, get_experiment

#: Where artifacts land unless the caller overrides it (the CLI's --out).
DEFAULT_RESULTS_DIR = Path("results")

#: Artifact version: bumped when the JSON layout changes *or* when an
#: engine change alters the rows computed for an unchanged
#: (name, scale, seed, trials) key, so stale cached artifacts the current
#: code cannot reproduce are never served.  v2: anonymity figures (7-10)
#: moved to the batched Monte-Carlo engine, which consumes randomness in
#: bulk draws rather than per trial.  v3: figs. 7-10 are exact expectations,
#: no longer Monte-Carlo estimates.
ARTIFACT_VERSION = 3


#: What a worker runs: the experiment's ``run_trial``, the trial's index, its
#: parameters and its seed.
TrialPayload = tuple[
    Callable[[dict, np.random.Generator], dict], int, dict, np.random.SeedSequence
]


class UsageError(ValueError):
    """A run request the caller got wrong.

    The message is one line; the CLI prints it after ``error: `` and exits 2.
    """


@dataclass(frozen=True)
class Job:
    """The four values that fully determine a run; constructing one validates it.

    Both ways of starting a run — the CLI and :func:`run_experiment` — build
    a ``Job`` first, so each check below exists once and runs before any
    trial does.  A rejected request raises :class:`UsageError` (an unknown
    ``name`` keeps the registry's :class:`KeyError`); both carry one-line
    messages.

    ``seed=None`` resolves to ``DEFAULT_BASE_SEED``.  ``backend``
    selects the overlay transport for experiments that support more than the
    simulator (the figs. 11-15 family); ``"aio"`` also checks the backend's
    environment knob (:func:`~repro.overlay.aio.environment_settings`),
    since every trial would read it.  Which GF(2^8) loops execute the
    trials is not part of a run request: :mod:`repro.core.gf` decides per
    host, bit-identically.

    >>> len(Job("fig16", scale=0.05).trials)
    18
    >>> Job("fig16", backend="aio")
    Traceback (most recent call last):
        ...
    repro.experiments.runner.UsageError: experiment 'fig16' does not support backend 'aio' (supported: sim)
    """

    name: str
    scale: float = 1.0
    seed: int | None = None
    backend: str = "sim"

    def __post_init__(self) -> None:
        experiment = self.experiment
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise UsageError(f"scale must be positive and finite, got {self.scale}")
        seed = DEFAULT_BASE_SEED if self.seed is None else int(self.seed)
        if seed < 0:
            raise UsageError(f"seed must be non-negative, got {seed}")
        object.__setattr__(self, "seed", seed)
        if self.backend not in experiment.backends:
            supported = ", ".join(experiment.backends)
            raise UsageError(
                f"experiment {self.name!r} does not support backend "
                f"{self.backend!r} (supported: {supported})"
            )
        if self.backend == "aio":
            from ..core.errors import SimulationError
            from ..overlay.aio import environment_settings

            try:
                environment_settings()
            except SimulationError as error:
                raise UsageError(str(error)) from None

    @property
    def experiment(self) -> Experiment:
        """The registered experiment (``KeyError`` listing the known names)."""
        return get_experiment(self.name)

    @property
    def cacheable(self) -> bool:
        """Whether a matching artifact may be served instead of recomputing.

        Runs on a non-default backend never are — they exist to exercise
        that backend's transport, though their rows equal the simulator's —
        and neither are the timing experiments.
        """
        return not self.experiment.wall_clock and self.backend == "sim"

    @cached_property
    def trials(self) -> list[dict]:
        """The experiment's declarative parameters expanded into its trial list.

        Backend-capable experiments carry the backend in every trial, so it
        reaches ``run_trial`` in workers and keys the artifact cache.  The
        result is already JSON-hygienic, so it compares equal to the list a
        cached artifact stores.
        """
        experiment = self.experiment
        trials = _jsonify(experiment.build_trials(self.scale))
        if len(experiment.backends) > 1:
            trials = [{**params, "backend": self.backend} for params in trials]
        return trials

    def payloads(self) -> list[TrialPayload]:
        """Per-trial execution payloads with deterministically spawned seeds.

        ``SeedSequence.spawn`` derives child ``i`` purely from ``(seed, i)``,
        so trial ``i`` gets the identical payload whichever pool process
        runs it.
        """
        run_trial = self.experiment.run_trial
        children = np.random.SeedSequence(self.seed).spawn(len(self.trials))
        return [
            (run_trial, index, params, child)
            for index, (params, child) in enumerate(zip(self.trials, children))
        ]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one experiment run (fresh or served from the artifact cache).

    ``name`` … ``backend`` are the fields of the :class:`Job` that ran.
    """

    name: str
    scale: float
    seed: int
    workers: int
    rows: list[dict]
    trial_count: int
    artifact: Path | None
    cached: bool
    elapsed_seconds: float
    backend: str = "sim"


def run_experiment(
    name: str,
    scale: float = 1.0,
    workers: int = 1,
    seed: int | None = None,
    out_dir: str | Path | None = None,
    force: bool = False,
    backend: str = "sim",
) -> RunResult:
    """Run (or load from cache) one registered experiment on this host.

    ``(name, scale, seed, backend)`` are the fields of
    :class:`Job`, which documents and validates them; ``workers`` fans the
    trials out over a ``multiprocessing`` pool.  ``out_dir=None`` keeps
    everything in memory; passing a directory enables both artifact writing
    and cache lookups.  ``force=True`` ignores an existing artifact and
    recomputes.

    The one run pipeline: cache lookup → trials → reduce → artifacts.
    """
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    job = Job(name, scale, seed, backend)
    started = time.perf_counter()
    artifact = None if out_dir is None else Path(out_dir) / f"{job.name}.json"
    rows = None
    if artifact is not None and not force and job.cacheable:
        rows = _load_cached_rows(artifact, job)
    cached = rows is not None
    if not cached:
        rows = _jsonify(job.experiment.rows(job.trials, _run_trials(job, workers)))
        if artifact is not None:
            _atomic_write_json(artifact, _artifact_document(job, rows))
    if artifact is not None:
        # The parity mirror must track the served rows even when the main
        # artifact is a cache hit (it may have been deleted or predate the
        # current layout).
        _write_parity_artifact(artifact, job, rows)
    return RunResult(
        **asdict(job),
        workers=workers,
        rows=rows,
        trial_count=len(job.trials),
        artifact=artifact,
        cached=cached,
        elapsed_seconds=time.perf_counter() - started,
    )


def experiment_rows(
    name: str, scale: float = 1.0, seed: int | None = None, workers: int = 1
) -> list[dict]:
    """Convenience wrapper: run in memory and return only the rows."""
    return run_experiment(name, scale=scale, workers=workers, seed=seed).rows


# -- execution ---------------------------------------------------------------------


def execute_trial(payload: TrialPayload) -> tuple[int, dict]:
    """Run one trial; module-level so it pickles into worker processes."""
    run_trial, index, params, seed_sequence = payload
    return index, run_trial(params, np.random.default_rng(seed_sequence))


def _run_trials(job: Job, workers: int) -> list[dict]:
    payloads = job.payloads()
    workers = min(workers, len(payloads)) or 1
    if workers == 1:
        indexed = [execute_trial(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context()
        ) as pool:
            indexed = list(pool.map(execute_trial, payloads))
    indexed.sort(key=lambda pair: pair[0])
    return [result for _, result in indexed]


# -- artifacts ---------------------------------------------------------------------


def _artifact_document(job: Job, rows: list[dict]) -> dict:
    return {
        "version": ARTIFACT_VERSION,
        "experiment": job.name,
        "title": job.experiment.title,
        "scale": job.scale,
        "seed": job.seed,
        "trials": job.trials,
        "rows": rows,
    }


def serialise_artifact(document: dict) -> str:
    """Canonical JSON: fixed separators and preserved insertion order, so equal
    documents serialise to identical bytes no matter how they were computed.
    Keys are *not* sorted: row key order is already deterministic for a given
    (experiment, scale, seed), and preserving it keeps cached rows identical
    in shape to freshly computed ones (column order in printed tables)."""
    return json.dumps(document, indent=2, separators=(",", ": ")) + "\n"


def _atomic_write_json(path: Path, document: dict) -> None:
    """Canonically serialise and atomically replace ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(serialise_artifact(document), encoding="utf-8")
    tmp.replace(path)


def _write_parity_artifact(artifact: Path, job: Job, rows: list[dict]) -> None:
    """Mirror the rows' ``parity`` sub-dicts into ``<name>.parity.json``.

    The parity document deliberately carries *no* backend or timing fields:
    for a given (experiment, scale, seed) it must serialise to identical
    bytes no matter which overlay backend computed it, which is exactly what
    the CI ``aio-parity`` job ``cmp``-checks.
    """
    parity_rows = [row["parity"] for row in rows if isinstance(row, dict) and "parity" in row]
    if not parity_rows:
        return
    document = {
        "version": ARTIFACT_VERSION,
        "experiment": job.name,
        "scale": job.scale,
        "seed": job.seed,
        "rows": parity_rows,
    }
    _atomic_write_json(artifact.with_name(f"{artifact.stem}.parity.json"), document)


def _load_cached_rows(artifact: Path, job: Job) -> list[dict] | None:
    # Anything unreadable is a miss, never a crash: a missing file, bytes
    # that are not UTF-8 or not JSON (both ValueErrors), or JSON that is
    # not an object.
    try:
        document = json.loads(artifact.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    matches = (
        isinstance(document, dict)
        and document.get("version") == ARTIFACT_VERSION
        and document.get("experiment") == job.name
        and document.get("scale") == job.scale
        and document.get("seed") == job.seed
        and isinstance(document.get("rows"), list)
        # The stored trial list must match what the current experiment
        # definition would run — an edited definition invalidates the cache.
        and document.get("trials") == job.trials
    )
    return document["rows"] if matches else None


# -- JSON hygiene ------------------------------------------------------------------


def _jsonify(value):
    """Recursively convert numpy scalars/arrays into plain JSON-able Python."""
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value
