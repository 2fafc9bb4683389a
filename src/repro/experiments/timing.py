"""The one wall-clock comparison protocol for two paths of our own code.

A bench experiment (today ``dataplane-bench``) declares two paths that must
produce the same result — the reference implementation and the fast one —
and :func:`compare_paths` does the rest: warm both, re-check identity on every repetition, take each
side's per-repetition minimum (the standard noise-robust microbenchmark
estimator) and report both absolute sides next to their ratio, under the
column names :mod:`~repro.experiments.bench_history` reads into the ledger.
"""

from __future__ import annotations

from dataclasses import is_dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np


def _same(left: Any, right: Any) -> bool:
    """Equality that understands arrays, and sequences and dataclasses of them."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.array_equal(left, right)
    if is_dataclass(left) and type(left) is type(right):
        left, right = list(vars(left).values()), list(vars(right).values())
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(map(_same, left, right))
    return bool(left == right)


def _timed(path: Callable[[], Any]) -> tuple[float, Any]:
    """Seconds one call of ``path`` took, and what it returned.

    If the call returns a callable, ``path`` was a factory: that call was
    set-up, its time is discarded, and the returned callable is timed.
    """
    start = perf_counter()
    result = path()
    elapsed = perf_counter() - start
    if callable(result):
        start = perf_counter()
        result = result()
        elapsed = perf_counter() - start
    return elapsed, result


def compare_paths(
    reference: Callable[[], Any], fast: Callable[[], Any], reps: int
) -> dict:
    """Time ``reference`` against ``fast``; returns the four bench columns.

    A path is a zero-argument callable returning its result — or, when
    set-up must stay off the clock, a factory that does the set-up and
    returns the callable to time.  Both paths run once untimed (first-call
    allocation, JIT compilation), then ``reps`` times alternately.
    ``reference_ms`` / ``fast_ms`` are the per-repetition minima,
    ``speedup`` their ratio, and ``identical`` is False — reported, never
    raised — as soon as one warm-up or repetition pair returns different
    results.
    """
    identical = _same(_timed(reference)[1], _timed(fast)[1])
    reference_times: list[float] = []
    fast_times: list[float] = []
    for _ in range(max(reps, 1)):
        seconds, expected = _timed(reference)
        reference_times.append(seconds)
        seconds, actual = _timed(fast)
        fast_times.append(seconds)
        identical = identical and _same(expected, actual)
    reference_seconds = min(reference_times)
    fast_seconds = min(fast_times)
    return {
        "reference_ms": reference_seconds * 1e3,
        "fast_ms": fast_seconds * 1e3,
        "speedup": reference_seconds / max(fast_seconds, 1e-12),
        "identical": identical,
    }
