"""Fig. 12: PlanetLab-profile throughput vs. path length; slicing wins.

Regenerates the figure's series through the experiment runner
(``run_experiment("fig12")``) and prints the rows the paper plots.  See
README.md ("Figure → experiment name") for the paper artifact.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig12_throughput_wan(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig12", "scale": scale}, iterations=1, rounds=1
    )
    assert all(r['slicing_mbps'] > r['onion_mbps'] for r in rows)
    print()
    print(format_table(rows))
