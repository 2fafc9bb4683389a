"""Fig. 17: probability of completing a 30-minute transfer on a churning
overlay vs. added redundancy (L=5, d=2).

Regenerates the figure's series through the experiment runner
(``run_experiment("fig17")``) and prints the rows the paper plots.  The rows
are closed forms (Eqs. 7 and 6 and plain onion routing at the churn model's
30-minute failure probability), so they do not depend on the scale.  See
README.md ("Figure → experiment name") for the paper artifact.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig17_churn_resilience(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig17", "scale": scale}, iterations=1, rounds=1
    )
    assert rows[-1]['information_slicing_success'] > rows[-1]['onion_erasure_success']
    assert rows[-1]['information_slicing_success'] > rows[0]['information_slicing_success']
    print()
    print(format_table(rows))
