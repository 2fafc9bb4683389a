"""Distributed-sharding measurement: byte-identity on both wire transports.

Runs the ``distsweep`` experiment: fig11's trials leased over TCP to 1, 2,
... local worker processes (counts above the host's CPUs are recorded as
skipped, not run), once over the plain wire and once over the secure one.
The merged artifact must be byte-identical to the single-process run in
*every* measured configuration.  The seconds of the compute window (first
lease granted -> last result merged, i.e. excluding interpreter start-up)
are reported per (transport, workers) and carry no target: fig11's fixed
per-run cost bounds what sharding can buy (docs/ARCHITECTURE.md,
"Distributed execution").
"""

import os

from repro.experiments import format_table
from repro.experiments.figures import DISTSWEEP_TRANSPORTS
from repro.experiments.runner import run_experiment


def test_distributed_sharding_speedup_and_byte_identity(benchmark, scale, check_speedups):
    result = benchmark.pedantic(
        run_experiment,
        kwargs={"name": "distsweep", "scale": scale},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_table(result.rows))
    # Every row records the host parallelism the measurement ran under.
    assert all(row["cpu_count"] == (os.cpu_count() or 1) for row in result.rows)
    measured = [row for row in result.rows if "skipped" not in row]
    assert all(row["workers"] > row["cpu_count"] for row in result.rows if "skipped" in row)
    # One worker always fits, so both transports are always measured...
    assert {row["transport"] for row in measured} == set(DISTSWEEP_TRANSPORTS)
    # ...and byte-identity of the distributed merge is machine-independent.
    assert all(row["byte_identical"] for row in measured)
    assert all(row["seconds"] > 0 for row in measured)
    if any("speedup" in row for row in measured):
        check_speedups(result.rows, "distsweep")
