"""Fig. 15: PlanetLab-profile route-setup latency vs. path length and d.

Regenerates the figure's series through the experiment runner
(``run_experiment("fig15")``) and prints the rows the paper plots.  See
README.md ("Figure → experiment name") for the paper artifact.
Individual points are noisy because the heterogeneous profile redraws node
loads per run, so the d=2 < d=4 ordering is asserted on the sweep average
(as in the tier-1 tests).
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig15_setup_wan(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig15", "scale": scale}, iterations=1, rounds=1
    )
    mean_d2 = sum(r['slicing_d2_seconds'] for r in rows) / len(rows)
    mean_d4 = sum(r['slicing_d4_seconds'] for r in rows) / len(rows)
    assert mean_d2 < mean_d4
    print()
    print(format_table(rows))
