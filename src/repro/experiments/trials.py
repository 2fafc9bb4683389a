"""Shared trial-construction helpers for experiment definitions.

Used by both :mod:`~repro.experiments.figures` and
:mod:`~repro.experiments.ablations` (and by any future experiment module
that plugs into the registry): Monte-Carlo chunking so one expensive
parameter point fans out across runner workers, weighted merging of those
chunks, and deterministic seed derivation for seed-taking measurement APIs.
"""

from __future__ import annotations

import numpy as np

#: Upper bound on Monte-Carlo trials per runner task, so a single expensive
#: parameter point still fans out across workers.
MAX_TRIALS_PER_TASK = 250


def chunk_sizes(total: int) -> list[int]:
    """Split ``total`` Monte-Carlo trials into bounded task-sized chunks."""
    return [
        min(MAX_TRIALS_PER_TASK, total - start)
        for start in range(0, total, MAX_TRIALS_PER_TASK)
    ]


def chunked_points(points: list[dict], total_trials: int) -> list[dict]:
    """One trial dict per (parameter point, Monte-Carlo chunk)."""
    return [
        {**point, "trials": chunk}
        for point in points
        for chunk in chunk_sizes(total_trials)
    ]


def merge_chunks(
    results: list[dict], keys: tuple[str, ...], fields: tuple[str, ...]
) -> list[dict]:
    """Weighted-average chunk results sharing the same key tuple (trial order)."""
    order: list[tuple] = []
    groups: dict[tuple, list[dict]] = {}
    for result in results:
        key = tuple(result[k] for k in keys)
        if key not in groups:
            order.append(key)
            groups[key] = []
        groups[key].append(result)
    rows = []
    for key in order:
        group = groups[key]
        total = sum(r["trials"] for r in group)
        row = dict(zip(keys, key))
        for field in fields:
            row[field] = sum(r[field] * r["trials"] for r in group) / total
        rows.append(row)
    return rows


def spawn_seed(rng: np.random.Generator) -> int:
    """Derive a deterministic integer seed for seed-taking measurement APIs."""
    return int(rng.integers(0, 2**31 - 1))
