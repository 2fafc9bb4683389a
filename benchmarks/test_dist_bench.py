"""Distributed-sharding gate: coordinator/worker speedup and byte-identity.

Runs the ``distbench`` experiment: fig11's trials leased over TCP to 1 and
then 2 local worker processes.  The merged artifact must be byte-identical
to the single-process run in *every* configuration, and with 2 workers the
compute phase (first lease granted -> last result merged, i.e. excluding
interpreter start-up) must beat 1 worker by
:data:`~repro.experiments.figures.DISTBENCH_TARGET_SPEEDUP` — reported on
every run, enforced under ``--enforce-speedups`` (see ``conftest.py``).  The
speedup needs real parallelism: below
:data:`~repro.experiments.figures.DISTBENCH_MIN_CPUS` host CPUs the
experiment itself records a ``"skipped"`` row carrying the reason (and its
``cpu_count``), this gate skips with that reason, and the bench-history
trend renders the gate as ``n/a`` — CI runners provide at least two cores,
and the ``dist-parity`` job enforces the gate there.
"""

import os

import pytest

from repro.experiments import format_table
from repro.experiments.figures import DISTBENCH_MIN_CPUS, DISTBENCH_TARGET_SPEEDUP
from repro.experiments.runner import run_experiment


def test_distributed_sharding_speedup_and_byte_identity(benchmark, scale, check_speedups):
    result = benchmark.pedantic(
        run_experiment,
        kwargs={"name": "distbench", "scale": scale},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_table(result.rows))
    # Every row records the host parallelism the measurement ran under.
    assert all(row["cpu_count"] == (os.cpu_count() or 1) for row in result.rows)
    skipped = [row for row in result.rows if "skipped" in row]
    if skipped:
        assert all(row["cpu_count"] < DISTBENCH_MIN_CPUS for row in skipped)
        pytest.skip(skipped[0]["skipped"])
    # Byte-identity of the distributed merge is machine-independent.
    assert all(row["byte_identical"] for row in result.rows)
    check_speedups([row["speedup"] for row in result.rows], DISTBENCH_TARGET_SPEEDUP)
