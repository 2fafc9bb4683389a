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

from repro.experiments.bench_history import GATES, summarise_gate

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


# -- speedup gates: always reported, enforced only on opt-in ------------------------
#
# Wall-clock speed must never decide whether tier-1 (`python -m pytest -x -q`)
# is green: a slow or busy host is not a bug.  Every benchmark keeps asserting
# bit-identity and structure unconditionally; the gated ones hand their rows to
# `check_speedups`, which summarises them exactly as the ledger does
# (`bench_history.summarise_gate`), records the line for the terminal summary
# and fails below the gate's target or floor (`bench_history.GATES`) only
# under `--enforce-speedups` (the CI bench steps pass it).


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
    """``check(rows, gate)``: report ``gate``'s measured rows; enforce on opt-in."""
    config = request.config
    enforce = config.getoption("--enforce-speedups", default=False)

    def check(rows: list[dict], gate: str):
        target, floor = GATES[gate]["target"], GATES[gate]["floor"]
        summary = summarise_gate({"rows": rows})
        speedups = sorted(round(row["speedup"], 2) for row in rows if "speedup" in row)
        wanted = "no target" if target is None else f"target >= {target:g}x"
        if floor is not None:
            wanted += f", each > {floor:g}x"
        line = (
            f"{gate}: median {summary['speedup']:.2f}x "
            f"({summary['reference_ms']:.4g} -> {summary['fast_ms']:.4g} ms) "
            f"of {speedups} ({wanted})"
        )
        config.stash.setdefault(_SPEEDUP_REPORT, []).append(line)
        if not enforce:
            return
        assert target is None or summary["speedup"] >= target, line
        assert floor is None or summary["min_speedup"] > floor, line

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
