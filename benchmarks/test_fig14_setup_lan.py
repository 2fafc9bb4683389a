"""Fig. 14: LAN route-setup latency vs. path length for onion routing and
slicing with d=2,3,4; larger d means longer setup.

Regenerates the figure's series through the experiment runner
(``run_experiment("fig14")``) and prints the rows the paper plots.  See
README.md ("Figure → experiment name") for the paper artifact.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig14_setup_lan(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig14", "scale": scale}, iterations=1, rounds=1
    )
    assert all(r['slicing_d2_seconds'] < r['slicing_d4_seconds'] for r in rows)
    assert all(r['onion_seconds'] < r['slicing_d2_seconds'] for r in rows)
    print()
    print(format_table(rows))
