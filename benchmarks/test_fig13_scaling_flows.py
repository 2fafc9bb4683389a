"""Fig. 13: aggregate throughput vs. number of concurrent flows on a
100-node overlay (d=3, L=5); throughput scales then saturates.

Regenerates the figure's series through the experiment runner
(``run_experiment("fig13")``) and prints the rows the paper plots.  See
README.md ("Figure → experiment name") for the paper artifact.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig13_scaling_flows(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig13", "scale": scale}, iterations=1, rounds=1
    )
    assert rows[-1]['network_throughput_mbps'] >= rows[0]['network_throughput_mbps']
    print()
    print(format_table(rows))
