"""GF(2^8) kernel gate: the two C loops against their numpy reference (the
``gfbench`` target of ``bench_history.GATES``) on two stacked 64-matrix
calls — a batched matmul (64 x (8, 4) @ (4, 65)) and the batched
Gauss–Jordan inverse (64 x (4, 4), singular members included) — while every
output array stays bit-identical to the reference.  Regenerates the series through the
experiment runner (``run_experiment("gfbench")``).

The C provider is compiled on demand; on hosts where it does not load the
experiment records ``"skipped"`` rows and this gate skips with the loader's
reason — the CI ``dataplane-bench`` job enforces it (``--enforce-speedups``;
without the flag the speedup is only reported).
"""

import pytest

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_gf_kernel_microbench(benchmark, scale, check_speedups):
    rows = benchmark.pedantic(
        experiment_rows,
        kwargs={"name": "gfbench", "scale": scale},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_table(rows))
    skipped = [row for row in rows if "skipped" in row]
    if skipped:
        pytest.skip(skipped[0]["skipped"])
    # Bit-identity is asserted on every repetition inside the benchmark; a
    # C loop that drifts from the numpy reference fails here before
    # any speedup is considered.
    assert all(row["identical"] for row in rows)
    assert {row["op"] for row in rows} == {"matmul", "invert"}
    # Locally the margin is ~5x (matmul) and ~10x (invert); the gate is on
    # the median across seeds and ops so one contended timing sample on a
    # loaded CI runner cannot flake the bench job.
    check_speedups(rows, "gfbench")
