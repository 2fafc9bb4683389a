"""§6.2 microbenchmark: the batched anonymity Monte-Carlo engine
(``simulate_anonymity_batch``) against the scalar reference loop at the
paper's 1000 trials per data point.

The acceptance bar for the vectorised engine: bit-identical per-trial values
under a shared seed, and the ``anonbench`` speedup target of
``bench_history.GATES`` at 1000 trials.  Regenerates the
series through the experiment runner (``run_experiment("anonbench")``).
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_anonymity_microbench(benchmark, scale, check_speedups):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "anonbench", "scale": scale}, iterations=1, rounds=1
    )
    # The vectorised engine must reproduce the scalar reference bit-for-bit.
    assert all(row["identical"] for row in rows)
    # Locally the margin is ~25-40x; the gate is on the median across
    # parameter points so one contended timing sample on a loaded CI runner
    # cannot flake the bench job.
    check_speedups(rows, "anonbench")
    print()
    print(format_table(rows))
