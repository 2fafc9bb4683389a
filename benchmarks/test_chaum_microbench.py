"""Fig. 7 Chaum-mix microbenchmark: the batched ``(trials, hops)`` engine
against the scalar reference loop at the paper's 1000 trials per data point.

The acceptance bar mirrors the anonymity engine's: bit-identical per-trial
values under a shared seed, and the ``chaumbench`` speedup target of
``bench_history.GATES`` at 1000 trials (the Chaum baseline dominated fig07
wall-clock before vectorisation).  Regenerates the
series through the experiment runner (``run_experiment("chaumbench")``).
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_chaum_microbench(benchmark, scale, check_speedups):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "chaumbench", "scale": scale}, iterations=1, rounds=1
    )
    # The vectorised engine must reproduce the scalar reference bit-for-bit.
    assert all(row["identical"] for row in rows)
    # Locally the margin is ~16-25x; the gate is on the median across
    # parameter points so one contended timing sample on a loaded CI runner
    # cannot flake the bench job.
    check_speedups(rows, "chaumbench")
    print()
    print(format_table(rows))
