"""Sphinx data-plane microbenchmark: batched cell masking vs the per-cell loop.

``wrap_cells``/``strip_cells`` build one layered keystream mask per burst
and XOR it across the stacked cells in a single vectorised pass; the
reference path runs ``wrap_data``/``handle_data`` cell by cell.  The
acceptance bar mirrors the other data-plane gates: bit-identical bytes on
both paths, and a median speedup across path lengths at the
``sphinxbench`` target of ``bench_history.GATES``.  Regenerates the series through the experiment runner
(``run_experiment("sphinxbench")``).
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_sphinx_cell_masking_bench(benchmark, scale, check_speedups):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "sphinxbench", "scale": scale}, iterations=1, rounds=1
    )
    # The batched masks must reproduce the per-cell reference bit-for-bit.
    assert all(row["identical"] for row in rows)
    check_speedups(rows, "sphinxbench")
    print()
    print(format_table(rows))
