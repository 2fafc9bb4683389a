"""Fig. 9: anonymity vs. path length L (d=3, f=0.1); both curves rise with L.

Regenerates the figure's series through the experiment runner
(``run_experiment("fig09")``) and prints the rows the paper plots.
Each point is the exact expectation (``exact_anonymity``; no sampling, so
``scale`` changes nothing); see docs/anonymity-math.md for the model.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig09_anonymity_vs_pathlen(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig09", "scale": scale}, iterations=1, rounds=1
    )
    assert rows[-1]['source_anonymity'] >= rows[0]['source_anonymity'] - 0.05
    print()
    print(format_table(rows))
