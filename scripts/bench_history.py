#!/usr/bin/env python
"""Collect bench gates and perfbench medians into BENCH_trajectory.json.

``collect`` reads whichever gate artifacts (``<gate>.json`` for every name
in ``bench_history.GATES``) exist in the results directory and, with
``--perfbench``, the result documents ``perfbench/run.py --out-dir`` wrote,
and upserts one entry per ``--label`` into the ledger; ``render`` prints the
ledger as the markdown tables the README and the scenario report embed.

Usage:
    python scripts/bench_history.py collect --label pr19 --results results \
        [--perfbench perfbench/results] [--out BENCH_trajectory.json]
    python scripts/bench_history.py render [--trajectory BENCH_trajectory.json]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

try:
    from repro.experiments import bench_history
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.experiments import bench_history

DEFAULT_TRAJECTORY = REPO_ROOT / "BENCH_trajectory.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    collect = subparsers.add_parser("collect", help="record one ledger entry for a label")
    collect.add_argument("--label", required=True, help="entry label (PR number or commit)")
    collect.add_argument(
        "--results",
        type=Path,
        default=REPO_ROOT / "results",
        help="directory holding the gate artifacts (default: results/)",
    )
    collect.add_argument(
        "--perfbench",
        type=Path,
        default=None,
        help="directory of perfbench/run.py --out-dir documents to take medians of",
    )
    collect.add_argument("--out", type=Path, default=DEFAULT_TRAJECTORY)

    render = subparsers.add_parser("render", help="print the trajectory trend table")
    render.add_argument("--trajectory", type=Path, default=DEFAULT_TRAJECTORY)

    args = parser.parse_args(argv)
    if args.command == "collect":
        try:
            trajectory, missing = bench_history.collect(
                args.label, args.results, args.out, args.perfbench
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        entry = next(e for e in trajectory["entries"] if e["label"] == args.label)
        workloads = entry.get("perfbench", {}).get("workloads", {})
        print(
            f"{args.out}: label {args.label!r} records {len(entry['gates'])} gate(s) "
            f"and {len(workloads)} perfbench workload(s)"
        )
        for gate in missing:
            print(f"  missing artifact for gate {gate!r}", file=sys.stderr)
        return 0
    print(bench_history.render_trend(bench_history.load_trajectory(args.trajectory)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
