"""Command-line experiment runner.

Subcommands::

    python -m repro.experiments run <name> [...] [--workers N] [--scale S]
                                    [--out DIR] [--seed N] [--force]
                                    [--backend sim|aio] [--scheme NAME]
                                    [--matrix SPEC ...]
    python -m repro.experiments report --matrix SPEC [--results DIR] [...]
    python -m repro.experiments list

``run`` executes registered experiments through the runner — inline, or
over a pool of ``--workers N`` local processes, with byte-identical
artifacts either way — and writes canonical JSON artifacts (default:
``results/``); artifacts matching the requested (experiment, scale, seed)
are re-used unless ``--force``.  ``--backend aio`` drives the overlay
experiments (figs. 11-15) over the asyncio localhost-TCP backend instead of
the discrete-event simulator; the structural fields land in
``<name>.parity.json`` for cross-backend comparison.  ``list`` prints every
registered experiment.

``--matrix SPEC`` registers the cells of a scenario-matrix spec file
(:mod:`repro.experiments.scenarios`) before dispatch; with ``run`` and no
explicit names, all of the matrix's cells run.  ``report`` merges the cell
artifacts of a matrix into ``scenario_report.json`` plus a markdown page
(:mod:`repro.experiments.report`), with an optional baseline-delta
section.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict

from ..overlay.runtime import SUBSTRATE_BACKENDS
from .registry import experiment_names, get_experiment
from .runner import DEFAULT_RESULTS_DIR, Job, RunResult, UsageError, run_experiment
from .tables import format_table
from .throughput import SCHEMES


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
        help="registered experiment names (see the 'list' subcommand); "
        "defaults to every cell of the --matrix spec(s) when omitted",
    )
    run_parser.add_argument(
        "--matrix",
        action="append",
        default=None,
        metavar="SPEC",
        help="scenario-matrix spec file whose cells to register before "
        "dispatch (repeatable)",
    )
    # The run request.  Its values are validated by building the Job in
    # _run_command (not via argparse type=) so that a non-finite scale, a
    # negative seed, a bad worker count or an unsupported scheme/backend
    # pairing is a one-line exit-2 error listing what is supported, not a
    # usage dump or a traceback.
    run_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="trial-count scale factor (1.0 = the paper's full counts)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="override the experiment's base seed"
    )
    run_parser.add_argument(
        "--backend",
        choices=SUBSTRATE_BACKENDS,
        default="sim",
        help="overlay transport backend for figs. 11-15: 'sim' (discrete-event, "
        "default) or 'aio' (asyncio localhost TCP)",
    )
    run_parser.add_argument(
        "--scheme",
        default=None,
        metavar="NAME",
        help="restrict a scheme-capable experiment (figs. 11-15) to one scheme "
        f"({', '.join(SCHEMES)})",
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

    report_parser = subparsers.add_parser(
        "report",
        help="merge a matrix's cell artifacts into the consolidated report",
    )
    report_parser.add_argument(
        "--matrix",
        required=True,
        metavar="SPEC",
        help="scenario-matrix spec file to report on",
    )
    report_parser.add_argument(
        "--results",
        default=str(DEFAULT_RESULTS_DIR),
        help="directory holding the cell artifacts (default: results/)",
    )
    report_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="consolidated JSON output (default: <results>/scenario_report.json)",
    )
    report_parser.add_argument(
        "--md",
        default="docs/scenario-report.md",
        metavar="PATH",
        help="markdown output (default: docs/scenario-report.md; "
        "'-' skips markdown)",
    )
    report_parser.add_argument(
        "--baseline",
        default="docs/scenario-baseline.json",
        metavar="PATH",
        help="baseline report snapshot for regression deltas "
        "(default: docs/scenario-baseline.json; missing file = no deltas)",
    )

    subparsers.add_parser("list", help="list registered experiments")

    args = parser.parse_args(argv)
    matrices, code = _register_matrices(getattr(args, "matrix", None))
    if code:
        return code
    if args.command == "list":
        for name in experiment_names():
            print(f"{name:24s} {get_experiment(name).title}")
        return 0
    if args.command == "report":
        return _report_command(args, matrices[0])
    return _run_command(args, matrices)


def _register_matrices(paths: list[str] | str | None):
    """Register the spec file(s) named by ``--matrix``; spec errors exit 2."""
    from .scenarios import ScenarioSpecError, register_matrix_file

    if paths is None:
        return [], 0
    matrices = []
    for path in [paths] if isinstance(paths, str) else paths:
        try:
            matrices.append(register_matrix_file(path))
        except ScenarioSpecError as error:
            return [], _fail(str(error))
    return matrices, 0


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
    if result.scheme:
        header += f", scheme={result.scheme}"
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


def _run_command(args: argparse.Namespace, matrices: list) -> int:
    if not args.names:
        if not matrices:
            return _fail("no experiment names given (and no --matrix to default to)")
        from .scenarios import expand_matrix

        args.names = [
            cell.name for matrix in matrices for cell in expand_matrix(matrix)
        ]
    if args.workers < 1:
        return _fail(f"--workers must be >= 1, got {args.workers}")
    # Every requested run is validated up front, so a usage mistake exits
    # with one line before any trial runs, while a genuine failure inside
    # trial code keeps its traceback.
    try:
        jobs = [
            Job(name, args.scale, args.seed, args.backend, args.scheme)
            for name in args.names
        ]
    except (KeyError, UsageError) as error:
        return _fail(error.args[0])
    for job in jobs:
        result = run_experiment(
            **asdict(job), workers=args.workers, out_dir=args.out, force=args.force
        )
        _print_result(result)
    return 0


def _report_command(args: argparse.Namespace, matrix) -> int:
    from pathlib import Path

    from .report import write_report

    results_dir = Path(args.results)
    json_path = (
        Path(args.json) if args.json else results_dir / "scenario_report.json"
    )
    md_path = None if args.md == "-" else Path(args.md)
    try:
        report = write_report(
            matrix,
            results_dir,
            json_path=json_path,
            md_path=md_path,
            baseline_path=args.baseline,
        )
    except ValueError as error:  # a malformed --baseline file
        return _fail(str(error))
    summary = report["summary"]
    print(
        f"report for matrix {matrix.name!r}: {summary['cells']} cell(s), "
        f"{summary['complete']} complete, {summary['partial']} partial, "
        f"{summary['missing']} missing"
    )
    print(f"json: {json_path}")
    if md_path is not None:
        print(f"markdown: {md_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
