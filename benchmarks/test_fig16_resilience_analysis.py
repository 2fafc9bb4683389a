"""Fig. 16: analytical transfer-success probability vs. added redundancy
(Eqs. 6-7, L=5, d=2, p=0.1/0.3); slicing dominates onion+erasure.

Regenerates the figure's series through the experiment runner
(``run_experiment("fig16")``) and prints the rows the paper plots.  See
README.md ("Figure → experiment name") for the paper artifact.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig16_resilience_analysis(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig16", "scale": scale}, iterations=1, rounds=1
    )
    assert all(r['information_slicing_success'] >= r['onion_erasure_success'] - 1e-9 for r in rows)
    print()
    print(format_table(rows))
