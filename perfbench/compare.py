#!/usr/bin/env python3
"""Compare two sets of perfbench runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py A_DIR B_DIR

Each directory holds the result documents (``*-trace0.json``) that
``run.py --out-dir`` wrote for one side; produce them interleaved
(A B A B ...) so both sides see the same drift of a shared host.  For every
workload and end-to-end metric this prints both medians and quartiles, the
spread inside each set (quartile distance over median, the figure the
repeatability check uses) and how much worse B's median is than A's, as a
share of A's, next to the metric's bound.

A cell is *unresolved*, not *unchanged*, when the spread inside either set
exceeds the bound or the host stole CPU while it ran — unless every run of
one side beats every run of the other, which no noise explains.  The exit
code is 1 when a cell regressed or a message was not delivered.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Median ``host.steal_share`` of a set above which its timings are not trusted.
STEAL_LIMIT = 0.05


def load_set(directory: Path) -> dict[str, list[dict]]:
    """Result documents of one side by workload, in seed order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(document["workload"], []).append(document)
    for documents in runs.values():
        documents.sort(key=lambda document: document["seed"])
    return runs


def values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as the repeatability check takes them."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    first, median, third = statistics.quantiles(samples, n=4)
    return first, median, third


def spread(samples: list[float]) -> float:
    first, median, third = quartiles(samples)
    return (third - first) / median if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float, stolen: bool) -> tuple[float, str]:
    """How much worse B's median is than A's (share of A's) and what that means."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = (median_b - median_a) / median_a if median_a else 0.0
    if better == "higher":
        worse = -worse
    outcome = "regressed" if worse > bound else "improved" if worse < -bound else "unchanged"
    noisy = stolen or max(spread(a), spread(b)) > bound
    separated = max(a) < min(b) or max(b) < min(a)
    if noisy and not separated:
        outcome = "unresolved"
    return worse, outcome


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    side_a, side_b = (load_set(Path(directory)) for directory in argv)
    failed = regressed = 0
    unresolved = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        runs_a, runs_b = side_a.get(workload, []), side_b.get(workload, [])
        if not runs_a or not runs_b:
            print(f"\n{workload}: no runs on one side, skipped")
            continue
        steal = [statistics.median(values(runs, "host.steal_share")) for runs in (runs_a, runs_b)]
        undelivered = sum(run["failed"] for run in runs_a + runs_b)
        failed += undelivered
        print(f"\n{workload}: {len(runs_a)} runs of A, {len(runs_b)} of B; "
              f"{undelivered} messages not delivered; "
              f"host.steal_share {steal[0]:.3f} / {steal[1]:.3f}")
        print(f"  {'metric':<14} {'A q1 / median / q3':>32} {'B q1 / median / q3':>32} "
              f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}  verdict")
        for metric in benchmark["end_to_end"]:
            a, b = values(runs_a, metric["name"]), values(runs_b, metric["name"])
            worse, outcome = verdict(a, b, metric["better"], metric["bound"],
                                     stolen=max(steal) > STEAL_LIMIT)
            regressed += outcome == "regressed"
            if outcome == "unresolved":
                unresolved.append((workload, metric["name"], spread(a), spread(b)))
            cells = ["{:.4g} / {:.4g} / {:.4g}".format(*quartiles(side)) for side in (a, b)]
            print(f"  {metric['name']:<14} {cells[0]:>32} {cells[1]:>32} {spread(a):>9.1%} "
                  f"{spread(b):>9.1%} {worse:>+8.1%} {metric['bound']:>6.0%}  {outcome}")
    print()
    for workload, metric, spread_a, spread_b in unresolved:
        print(f"unresolved: {workload} {metric} (spread {spread_a:.1%} in A, {spread_b:.1%} in B)")
    print(f"{regressed} regressed, {len(unresolved)} unresolved, {failed} messages not delivered")
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
