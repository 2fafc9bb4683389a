"""Fig. 11: LAN throughput vs. path length; information slicing (d=2) beats
onion routing at every path length.

Regenerates the figure's series through the experiment runner
(``run_experiment("fig11")``) and prints the rows the paper plots.  See
README.md ("Figure → experiment name") for the paper artifact.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig11_throughput_lan(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig11", "scale": scale}, iterations=1, rounds=1
    )
    assert all(r['slicing_mbps'] > r['onion_mbps'] for r in rows)
    print()
    print(format_table(rows))
