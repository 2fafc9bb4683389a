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


# -- speedup thresholds: always reported, enforced only on opt-in -------------------
#
# Wall-clock speed must never decide whether tier-1 (`python -m pytest -x -q`)
# is green: a slow or busy host is not a bug.  Every benchmark keeps asserting
# bit-identity and structure unconditionally and routes its speedup threshold
# through `check_speedups`, which records the measurement for the terminal
# summary and fails below target only under `--enforce-speedups` (the CI
# bench steps pass it).


def pytest_addoption(parser):
    parser.addoption(
        "--enforce-speedups",
        action="store_true",
        default=False,
        help="fail a benchmark whose measured speedup is below its target "
        "(default: report the speedups, assert only identity and structure)",
    )


_SPEEDUP_REPORT = pytest.StashKey[list]()


@pytest.fixture
def check_speedups(request):
    """``check(speedups, median_at_least, each_above=None)`` for one benchmark."""
    config = request.config
    enforce = config.getoption("--enforce-speedups", default=False)

    def check(speedups, median_at_least: float, each_above: float | None = None):
        ordered = sorted(speedups)
        median = ordered[len(ordered) // 2]
        floor = "" if each_above is None else f", each > {each_above:g}x"
        line = (
            f"{request.node.name}: median {median:.2f}x of "
            f"{[round(s, 2) for s in ordered]} "
            f"(target >= {median_at_least:g}x{floor})"
        )
        config.stash.setdefault(_SPEEDUP_REPORT, []).append(line)
        if not enforce:
            return
        assert median >= median_at_least, line
        assert each_above is None or all(s > each_above for s in ordered), line

    return check


def pytest_terminal_summary(terminalreporter, config):
    lines = config.stash.get(_SPEEDUP_REPORT, [])
    if not lines:
        return
    enforced = config.getoption("--enforce-speedups", default=False)
    verdict = "enforced" if enforced else "reported only; --enforce-speedups gates them"
    terminalreporter.section(f"measured speedups ({verdict})")
    for line in lines:
        terminalreporter.line(line)
