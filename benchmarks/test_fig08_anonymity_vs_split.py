"""Fig. 8: anonymity vs. the split factor d for f=0.1 and f=0.4.

Regenerates the figure's series through the experiment runner
(``run_experiment("fig08")``) and prints the rows the paper plots.
Each point is the exact expectation (``exact_anonymity``; no sampling, so
``scale`` changes nothing); see docs/anonymity-math.md for the model.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig08_anonymity_vs_split(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig08", "scale": scale}, iterations=1, rounds=1
    )
    assert rows[0]['split_factor'] == 2
    assert all(0.0 <= r['destination_anonymity_f0.4'] <= 1.0 for r in rows)
    print()
    print(format_table(rows))
