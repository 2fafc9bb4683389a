"""Section 7.1 microbenchmark: coding/decoding cost per 1500-byte packet
across split factors — an ungated cost table, not a ratio.

Regenerates the series through the experiment runner
(``run_experiment("microbench")``) and prints the rows the paper plots.  See
README.md ("Figure → experiment name") for the paper artifact.
"""

from repro.experiments import format_table
from repro.experiments.runner import experiment_rows


def test_coding_microbench(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "microbench", "scale": scale}, iterations=1, rounds=1
    )
    assert all(r['encode_us_per_packet'] > 0 for r in rows)
    print()
    print(format_table(rows))
