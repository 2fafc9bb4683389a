"""Fig. 10: anonymity vs. added redundancy (d=3, L=8, f=0.1); destination
anonymity decreases as redundancy grows.

Regenerates the figure's series through the experiment runner
(``run_experiment("fig10")``) and prints the rows the paper plots.
Each point is the exact expectation (``exact_anonymity``; no sampling, so
``scale`` changes nothing); see docs/anonymity-math.md for the model.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig10_anonymity_vs_redundancy(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig10", "scale": scale}, iterations=1, rounds=1
    )
    assert rows[0]['destination_anonymity'] >= rows[-1]['destination_anonymity'] - 0.05
    print()
    print(format_table(rows))
