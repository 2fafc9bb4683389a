"""Parallel experiment runner: deterministic fan-out plus JSON artifacts.

The runner turns a registered :class:`~repro.experiments.registry.Experiment`
into rows:

1. the run request becomes a :class:`Job` — ``(name, scale, seed, backend,
   scheme)``, validated on construction — whose ``build_trials(scale)``
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
   timing experiments, which are marked ``deterministic=False`` and never
   served from cache), the artifact is byte-identical for a given
   ``(name, scale, seed)`` regardless of worker count.

Worker processes receive only ``(experiment name, trial params, seed)``
triples; they re-import the registry themselves, which keeps every payload
picklable under both fork and spawn start methods.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .registry import Experiment, get_experiment

#: Where artifacts land unless the caller overrides it (the CLI's --out).
DEFAULT_RESULTS_DIR = Path("results")

#: Artifact version: bumped when the JSON layout changes *or* when an
#: engine change alters the rows computed for an unchanged
#: (name, scale, seed, trials) key, so stale cached artifacts the current
#: code cannot reproduce are never served.  v2: anonymity figures (7-10)
#: moved to the batched Monte-Carlo engine, which consumes randomness in
#: bulk draws rather than per trial.  v3: figs. 7-10 and the scenario cells'
#: anonymity columns are exact expectations, no longer Monte-Carlo estimates.
ARTIFACT_VERSION = 3


class UsageError(ValueError):
    """A run request the caller got wrong.

    The message is one line; the CLI prints it after ``error: `` and exits 2,
    a distributed worker after ``worker error: `` and exits 1.
    """


@dataclass(frozen=True)
class Job:
    """The five values that fully determine a run; constructing one validates it.

    Every way of starting a run — the CLI, :func:`run_experiment`,
    :func:`~repro.experiments.distributed.run_distributed` and a distributed
    worker parsing its ``job`` frame — builds a ``Job`` first, so each check
    below exists once and runs on every host that takes part.  A rejected
    request raises :class:`UsageError` (an unknown ``name`` keeps the
    registry's :class:`KeyError`); both carry one-line messages.

    ``seed=None`` resolves to the experiment's base seed.  ``backend``
    selects the overlay transport for experiments that support more than the
    simulator (the figs. 11-15 family).  ``scheme`` restricts a
    scheme-capable experiment to one registered protocol runtime.  Which
    GF(2^8) loops execute the trials is not part of a run request:
    :mod:`repro.core.gf` decides per host, bit-identically.

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
    scheme: str | None = None

    def __post_init__(self) -> None:
        experiment = self.experiment
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise UsageError(f"scale must be positive and finite, got {self.scale}")
        seed = experiment.base_seed if self.seed is None else int(self.seed)
        if seed < 0:
            raise UsageError(f"seed must be non-negative, got {seed}")
        object.__setattr__(self, "seed", seed)
        if self.backend not in experiment.backends:
            supported = ", ".join(experiment.backends)
            raise UsageError(
                f"experiment {self.name!r} does not support backend "
                f"{self.backend!r} (supported: {supported})"
            )
        if self.scheme is not None:
            self._check_scheme(experiment)

    def _check_scheme(self, experiment: Experiment) -> None:
        from ..overlay.runtime import runtime_backends, runtime_schemes

        scheme = self.scheme
        if not experiment.schemes:
            raise UsageError(
                f"experiment {self.name!r} does not support per-scheme runs"
            )
        if scheme not in experiment.schemes:
            supported = ", ".join(experiment.schemes)
            raise UsageError(
                f"experiment {self.name!r} does not support scheme {scheme!r} "
                f"(supported: {supported})"
            )
        if scheme not in runtime_schemes():
            known = ", ".join(runtime_schemes())
            raise UsageError(f"unknown runtime scheme {scheme!r} (known: {known})")
        if self.backend not in runtime_backends(scheme):
            supported = ", ".join(
                name
                for name in experiment.schemes
                if self.backend in runtime_backends(name)
            )
            raise UsageError(
                f"scheme {scheme!r} does not run on backend {self.backend!r} "
                f"(schemes supported on {self.backend!r}: {supported or 'none'})"
            )

    @property
    def experiment(self) -> Experiment:
        """The registered experiment (``KeyError`` listing the known names)."""
        return get_experiment(self.name)

    def require_shardable(self) -> None:
        """Reject leasing this job's trials to distributed workers."""
        if not self.experiment.shardable:
            raise UsageError(
                f"experiment {self.name!r} is not shardable (single-host "
                "wall-clock measurement); run it through `run` without --dist"
            )

    @property
    def cacheable(self) -> bool:
        """Whether a matching artifact may be served instead of recomputing.

        Runs on a non-default backend never are — their timing fields are
        wall-clock-dependent — and neither are the timing experiments.
        """
        return self.experiment.deterministic and self.backend == "sim"

    @cached_property
    def trials(self) -> list[dict]:
        """The experiment's declarative parameters expanded into its trial list.

        Backend-capable experiments carry the backend in every trial, and a
        scheme restriction (``--scheme``) is likewise stamped into every
        trial, so both reach ``run_trial`` in workers and key the artifact
        cache; the default (no restriction) trial list is byte-identical to
        what it was before schemes existed.  The result is already
        JSON-hygienic: a distributed worker rebuilding this list from an
        equal ``Job`` gets the exact dictionaries the coordinator holds.
        """
        experiment = self.experiment
        trials = _jsonify(experiment.build_trials(self.scale))
        if len(experiment.backends) > 1:
            trials = [{**params, "backend": self.backend} for params in trials]
        if self.scheme is not None:
            trials = [{**params, "scheme": self.scheme} for params in trials]
        return trials

    def payloads(self) -> list[tuple[str, int, dict, np.random.SeedSequence]]:
        """Per-trial execution payloads with deterministically spawned seeds.

        ``SeedSequence.spawn`` derives child ``i`` purely from ``(seed, i)``,
        so any process holding an equal ``Job`` reconstructs the identical
        payload for trial ``i`` — the property both the local pool and the
        distributed workers rely on.
        """
        children = np.random.SeedSequence(self.seed).spawn(len(self.trials))
        return [
            (self.name, index, params, child)
            for index, (params, child) in enumerate(zip(self.trials, children))
        ]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one experiment run (fresh or served from the artifact cache).

    ``name`` … ``scheme`` are the fields of the :class:`Job` that ran.
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
    scheme: str | None = None
    # The rest is filled in by distributed runs only.
    workers_seen: int = 0
    redispatched: int = 0
    #: Wire transport the run used ("plain" | "secure"); the merged artifact
    #: is byte-identical either way.
    transport: str = "plain"


def run_experiment(
    name: str,
    scale: float = 1.0,
    workers: int = 1,
    seed: int | None = None,
    out_dir: str | Path | None = None,
    force: bool = False,
    backend: str = "sim",
    scheme: str | None = None,
) -> RunResult:
    """Run (or load from cache) one registered experiment in this process.

    ``(name, scale, seed, backend, scheme)`` are the fields of
    :class:`Job`, which documents and validates them; ``workers`` fans the
    trials out over a ``multiprocessing`` pool.  ``out_dir=None`` keeps
    everything in memory; passing a directory enables both artifact writing
    and cache lookups.  ``force=True`` ignores an existing artifact and
    recomputes.
    """
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    job = Job(name, scale, seed, backend, scheme)
    return run_job(job, lambda: _run_trials(job, workers), workers, out_dir, force)


def run_job(
    job: Job,
    execute: Callable[[], list[dict]],
    workers: int,
    out_dir: str | Path | None,
    force: bool,
) -> RunResult:
    """The one run pipeline: cache lookup → ``execute`` → reduce → artifacts.

    ``execute`` returns the per-trial results in trial order — inline or
    from the pool for :func:`run_experiment`, from leased workers for
    :func:`~repro.experiments.distributed.run_distributed`.  Everything
    around it is shared, so a distributed run's merged artifact is
    byte-identical to the single-process one for an equal ``Job``.
    """
    started = time.perf_counter()
    artifact = None if out_dir is None else Path(out_dir) / f"{job.name}.json"
    rows = None
    if artifact is not None and not force and job.cacheable:
        rows = _load_cached_rows(artifact, job)
    cached = rows is not None
    if not cached:
        rows = _jsonify(job.experiment.rows(job.trials, execute()))
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
#
# The local multiprocessing fan-out (`_run_trials`) and the distributed worker
# loop (:mod:`repro.experiments.distributed`) both take their payloads from an
# equal `Job` and execute them through `execute_trial` — which is what makes a
# distributed run of a deterministic experiment byte-identical to a
# single-process one.


def execute_trial(
    payload: tuple[str, int, dict, np.random.SeedSequence],
) -> tuple[int, dict]:
    """Run one trial; module-level so it pickles into worker processes."""
    name, index, params, seed_sequence = payload
    experiment = get_experiment(name)
    rng = np.random.default_rng(seed_sequence)
    return index, experiment.run_trial(params, rng)


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
    if not artifact.exists():
        return None
    try:
        document = json.loads(artifact.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    matches = (
        document.get("version") == ARTIFACT_VERSION
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
