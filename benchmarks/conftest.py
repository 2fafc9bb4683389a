"""Shared configuration for the benchmark suite.

Each benchmark regenerates one figure/table of the paper at a reduced scale
(the ``SCALE`` constant) so that a full ``pytest benchmarks/ --benchmark-only``
run completes in a few minutes.  Set ``REPRO_BENCH_SCALE=1.0`` in the
environment to reproduce the paper's full trial counts.

All benchmarks drive their experiment through the registered runner
(:func:`repro.experiments.runner.experiment_rows`), so the benchmark suite
measures exactly what ``python -m repro.experiments run <name>`` executes.
Wall-clock speed never decides whether the suite is green: every benchmark
asserts bit-identity and structure, and ``perfbench/`` holds the absolute
numbers.
"""

import math
import os

import pytest

_RAW_SCALE = os.environ.get("REPRO_BENCH_SCALE", "0.1")


def _parse_scale(raw: str) -> float:
    """Validate REPRO_BENCH_SCALE up front, with an actionable error message."""
    try:
        value = float(raw)
    except ValueError:
        raise pytest.UsageError(
            f"REPRO_BENCH_SCALE must be a number, got {raw!r} "
            "(e.g. REPRO_BENCH_SCALE=0.1 or 1.0 for the paper's full trial counts)"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise pytest.UsageError(
            f"REPRO_BENCH_SCALE must be a positive finite number, got {raw!r}"
        )
    return value


SCALE = _parse_scale(_RAW_SCALE)


@pytest.fixture(scope="session")
def scale() -> float:
    return SCALE
