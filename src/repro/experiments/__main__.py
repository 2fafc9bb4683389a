"""Command-line experiment runner.

Subcommands::

    python -m repro.experiments run <name> [...] [--workers N] [--scale S]
                                    [--out DIR] [--seed N] [--force]
                                    [--backend sim|aio]
    python -m repro.experiments list

``run`` executes registered experiments through the runner — inline, or
over a pool of ``--workers N`` local processes, with byte-identical
artifacts either way — and writes canonical JSON artifacts (default:
``results/``); artifacts matching the requested (experiment, scale, seed)
are re-used unless ``--force``.  ``--backend aio`` drives the overlay
experiments (figs. 11-15) over the socket backend (localhost TCP) instead of
the discrete-event simulator; it runs the simulator's event order, so it
writes the simulator's artifact bytes, and it is never served from the
cache.  ``list`` prints every registered experiment.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict

from ..overlay.runtime import SUBSTRATE_BACKENDS
from .registry import experiment_names, get_experiment
from .runner import DEFAULT_RESULTS_DIR, Job, RunResult, UsageError, run_experiment
from .tables import format_table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run experiments through the runner")
    run_parser.add_argument(
        "names",
        nargs="*",
        metavar="name",
        help="registered experiment names (see the 'list' subcommand)",
    )
    # The run request.  Its values are validated by building the Job in
    # _run_command (not via argparse type=) so that a non-finite scale, a
    # negative seed, a bad worker count or an unsupported backend is a
    # one-line exit-2 error listing what is supported, not a usage dump or a
    # traceback.
    run_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="trial-count scale factor (1.0 = the paper's full counts)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="override the base seed"
    )
    run_parser.add_argument(
        "--backend",
        choices=SUBSTRATE_BACKENDS,
        default="sim",
        help="overlay transport backend for figs. 11-15: 'sim' (discrete-event, "
        "default) or 'aio' (localhost TCP sockets)",
    )
    run_parser.add_argument(
        "--out",
        default=str(DEFAULT_RESULTS_DIR),
        help="artifact directory (default: results/)",
    )
    run_parser.add_argument(
        "--force",
        action="store_true",
        help="recompute even if a matching artifact exists",
    )
    run_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: 1)"
    )

    subparsers.add_parser("list", help="list registered experiments")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in experiment_names():
            print(f"{name:24s} {get_experiment(name).title}")
        return 0
    return _run_command(args)


def _fail(message: str) -> int:
    """One-line usage error on stderr, exit 2 (no traceback, no usage dump)."""
    import sys

    print(f"error: {message}", file=sys.stderr)
    return 2


def _print_result(result: RunResult) -> None:
    status = "cached" if result.cached else f"{result.elapsed_seconds:.2f}s"
    header = f"scale={result.scale}, seed={result.seed}"
    if result.backend != "sim":
        header += f", backend={result.backend}"
    print(f"\n=== {result.name} ({header}, {status}) ===")
    # The structural parity sub-dicts are artifact material, not table
    # material — they would dwarf every other column.
    print(
        format_table(
            [
                {key: value for key, value in row.items() if key != "parity"}
                for row in result.rows
            ]
        )
    )
    if result.artifact is not None:
        print(f"artifact: {result.artifact}")


def _run_command(args: argparse.Namespace) -> int:
    if not args.names:
        return _fail("no experiment names given")
    if args.workers < 1:
        return _fail(f"--workers must be >= 1, got {args.workers}")
    # Every requested run is validated up front, so a usage mistake exits
    # with one line before any trial runs, while a genuine failure inside
    # trial code keeps its traceback.
    try:
        jobs = [
            Job(name, args.scale, args.seed, args.backend) for name in args.names
        ]
    except (KeyError, UsageError) as error:
        return _fail(error.args[0])
    for job in jobs:
        result = run_experiment(
            **asdict(job), workers=args.workers, out_dir=args.out, force=args.force
        )
        _print_result(result)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
