"""Fig. 7: source/destination anonymity vs. fraction of malicious nodes,
compared against Chaum mixes (N=10000, L=8, d=3).

Regenerates the figure's series through the experiment runner
(``run_experiment("fig07")``), one exact point per row (``exact_anonymity``
and ``exact_chaum_anonymity``; no sampling, so ``scale`` changes nothing),
and prints the rows the paper plots.  See docs/anonymity-math.md for the
underlying model.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_fig07_anonymity_vs_malicious(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "fig07", "scale": scale}, iterations=1, rounds=1
    )
    assert rows[0]['source_anonymity'] > 0.9
    assert rows[-1]['source_anonymity'] < rows[0]['source_anonymity']
    print()
    print(format_table(rows))
