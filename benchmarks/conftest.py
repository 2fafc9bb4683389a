"""Shared configuration for the benchmark suite.

Each benchmark regenerates one figure/table of the paper at a reduced scale
(the ``SCALE`` constant) so that a full ``pytest benchmarks/ --benchmark-only``
run completes in a few minutes.  Set ``REPRO_BENCH_SCALE=1.0`` in the
environment to reproduce the paper's full trial counts.

All benchmarks drive their experiment through the registered runner
(:func:`repro.experiments.runner.experiment_rows`), so the benchmark suite
measures exactly what ``python -m repro.experiments run <name>`` executes.
"""

import math
import os

import pytest

from repro.experiments.bench_history import summarise_gate

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


# -- gate readings: reported, never enforced ---------------------------------------
#
# Wall-clock speed must never decide whether tier-1 (`python -m pytest -x -q`)
# is green: a slow or busy host is not a bug.  Every benchmark asserts
# bit-identity and structure; the one gate of `bench_history.GATES` hands its
# rows to `check_speedups`, which summarises them exactly as the ledger does
# (`bench_history.summarise_gate`) and records the line for the terminal
# summary.


_SPEEDUP_REPORT = pytest.StashKey[list]()


@pytest.fixture
def check_speedups(request):
    """``check(rows, gate)``: report ``gate``'s measured rows."""
    config = request.config

    def check(rows: list[dict], gate: str):
        summary = summarise_gate({"rows": rows})
        speedups = sorted(round(row["speedup"], 2) for row in rows if "speedup" in row)
        config.stash.setdefault(_SPEEDUP_REPORT, []).append(
            f"{gate}: median {summary['speedup']:.2f}x "
            f"({summary['reference_ms']:.4g} -> {summary['fast_ms']:.4g} ms) of {speedups}"
        )

    return check


def pytest_terminal_summary(terminalreporter, config):
    lines = config.stash.get(_SPEEDUP_REPORT, [])
    if not lines:
        return
    terminalreporter.section("measured speedups (reported only)")
    for line in lines:
        terminalreporter.line(line)
