"""Data-plane microbenchmark gate: the batched overlay plane against the
per-packet reference on a 64-message fig11-style workload (the
``dataplane-bench`` target of ``bench_history.GATES``), while delivering
bit-identical plaintexts and relay counters.  Regenerates the
series through the experiment runner (``run_experiment("dataplane-bench")``).
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_dataplane_microbench(benchmark, scale, check_speedups):
    rows = benchmark.pedantic(
        experiment_rows,
        kwargs={"name": "dataplane-bench", "scale": scale},
        iterations=1,
        rounds=1,
    )
    # The batched plane must reproduce the per-packet reference bit-for-bit:
    # same delivered plaintexts, same per-relay counters.
    assert all(row["identical"] for row in rows)
    # Locally the margin is ~5-7x; the gate is on the median across seeds so
    # one contended timing sample on a loaded CI runner cannot flake the
    # bench job.
    check_speedups(rows, "dataplane-bench")
    # The event collapse is structural, not a timing accident.
    assert all(row["batched_events"] * 5 < row["scalar_events"] for row in rows)
    print()
    print(format_table(rows))
