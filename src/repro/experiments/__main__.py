"""Command-line experiment runner.

Subcommands::

    python -m repro.experiments run <name> [...] [--workers N] [--scale S]
                                    [--out DIR] [--seed N] [--force]
                                    [--backend sim|aio] [--dist N]
                                    [--matrix SPEC ...]
    python -m repro.experiments coordinate <name> [--host H] [--port P]
                                    [--transport plain|secure] [--keyfile K]
                                    [--authorized-keys A] [--scale S] [...]
    python -m repro.experiments worker --port P [--host H] [--matrix SPEC]
                                    [--transport plain|secure] [--keyfile K]
                                    [--coordinator-key PUB] [...]
    python -m repro.experiments keygen PATH
    python -m repro.experiments report --matrix SPEC [--results DIR] [...]
    python -m repro.experiments list

``run`` executes registered experiments through the parallel runner and
writes canonical JSON artifacts (default: ``results/``); artifacts matching
the requested (experiment, scale, seed) are re-used unless ``--force``.
``--backend aio`` drives the overlay experiments (figs. 11-15) over the
asyncio localhost-TCP backend instead of the discrete-event simulator; the
structural fields land in ``<name>.parity.json`` for cross-backend
comparison.  ``--dist N`` shards the trials across ``N`` local worker
processes through the distributed coordinator instead of the in-process
pool.  ``coordinate`` / ``worker`` run the two halves of the distributed
subsystem separately (the coordinator leases trial chunks over TCP and
merges the results into the same canonical artifact); ``--host`` takes
either side off localhost, and ``--transport secure`` mounts the frames on
the authenticated :mod:`repro.net` channel using key files from ``keygen``
(see ``docs/deployment.md`` for the fleet handbook).  ``list`` prints
every registered experiment.

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

#: Wire transports the distributed subcommands accept (mirrors
#: :data:`repro.experiments.distributed.TRANSPORTS`).
_TRANSPORT_CHOICES = ("plain", "secure")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Flags more than one subcommand takes are declared once and shared
    # through parents=.
    matrix_flags = argparse.ArgumentParser(add_help=False)
    matrix_flags.add_argument(
        "--matrix",
        action="append",
        default=None,
        metavar="SPEC",
        help="scenario-matrix spec file whose cells to register before "
        "dispatch (repeatable); remote workers need it too — they do not "
        "inherit REPRO_SCENARIO_MATRIX",
    )
    transport_flags = argparse.ArgumentParser(add_help=False)
    transport_flags.add_argument(
        "--transport",
        choices=_TRANSPORT_CHOICES,
        default="plain",
        help="wire transport between coordinator and workers: 'plain' "
        "(default) or 'secure' (authenticated Noise-style channel; "
        "`run --dist` generates throwaway keys, `coordinate`/`worker` take "
        "--keyfile plus --authorized-keys/--coordinator-key); artifacts "
        "are byte-identical either way",
    )
    # The run request.  Its values are validated by building the Job in
    # _jobs (not via argparse type=) so that a non-finite scale, a negative
    # seed or an unsupported scheme/backend pairing is a one-line exit-2
    # error listing what is supported, not a usage dump or a traceback.
    job_flags = argparse.ArgumentParser(add_help=False)
    job_flags.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="trial-count scale factor (1.0 = the paper's full counts)",
    )
    job_flags.add_argument(
        "--seed", type=int, default=None, help="override the experiment's base seed"
    )
    job_flags.add_argument(
        "--backend",
        choices=SUBSTRATE_BACKENDS,
        default="sim",
        help="overlay transport backend for figs. 11-15: 'sim' (discrete-event, "
        "default) or 'aio' (asyncio localhost TCP)",
    )
    job_flags.add_argument(
        "--scheme",
        default=None,
        metavar="NAME",
        help="restrict a scheme-capable experiment (figs. 11-15) to one "
        "registered protocol runtime (slicing, onion, onion-erasure, sphinx)",
    )
    job_flags.add_argument(
        "--out",
        default=str(DEFAULT_RESULTS_DIR),
        help="artifact directory (default: results/)",
    )
    job_flags.add_argument(
        "--force",
        action="store_true",
        help="recompute even if a matching artifact exists",
    )
    peer_flags = argparse.ArgumentParser(add_help=False)
    peer_flags.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface the coordinator binds and workers dial (default: 127.0.0.1)",
    )
    peer_flags.add_argument(
        "--keyfile",
        default=None,
        metavar="PATH",
        help="this side's static secret key file (see the 'keygen' subcommand)",
    )

    run_parser = subparsers.add_parser(
        "run",
        parents=[matrix_flags, job_flags, transport_flags],
        help="run experiments through the parallel runner",
    )
    run_parser.add_argument(
        "names",
        nargs="*",
        metavar="name",
        help="registered experiment names (see the 'list' subcommand); "
        "defaults to every cell of the --matrix spec(s) when omitted",
    )
    # Validated in _run_command (not via argparse type=) so that a bad count
    # is a one-line stderr error like the unknown-name/unsupported-backend
    # cases, not a usage dump.
    run_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: 1)"
    )
    run_parser.add_argument(
        "--dist",
        type=int,
        default=None,
        metavar="N",
        help="shard trials across N local worker processes via the "
        "distributed coordinator (see the 'coordinate'/'worker' subcommands)",
    )

    coordinate_parser = subparsers.add_parser(
        "coordinate",
        parents=[matrix_flags, job_flags, transport_flags, peer_flags],
        help="lease one experiment's trials to TCP workers and merge the rows",
    )
    coordinate_parser.add_argument(
        "name", help="registered experiment name (see the 'list' subcommand)"
    )
    coordinate_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (default: 0 = pick a free port and print it)",
    )
    coordinate_parser.add_argument(
        "--chunk", type=int, default=1, help="trial indices per lease (default: 1)"
    )
    coordinate_parser.add_argument(
        "--lease-seconds",
        type=float,
        default=120.0,
        help="lease lifetime before unreturned trials are re-dispatched "
        "(default: 120)",
    )
    coordinate_parser.add_argument(
        "--min-workers",
        type=int,
        default=1,
        help="hold the first lease until this many workers have joined (default: 1)",
    )
    coordinate_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="abort if the run has not completed after this many seconds",
    )
    coordinate_parser.add_argument(
        "--authorized-keys",
        default=None,
        metavar="PATH",
        help="allowlist of authorized worker public keys, one hex key per line",
    )

    worker_parser = subparsers.add_parser(
        "worker",
        parents=[matrix_flags, transport_flags, peer_flags],
        help="execute leased trials for a coordinator",
    )
    worker_parser.add_argument(
        "--port", type=int, required=True, help="coordinator port"
    )
    worker_parser.add_argument(
        "--label", default=None, help="worker name shown in coordinator logs"
    )
    worker_parser.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        help="seconds to keep retrying the initial connect (default: 10)",
    )
    worker_parser.add_argument(
        "--crash-after-leases",
        type=int,
        default=None,
        metavar="N",
        help="fault injection: die abruptly upon receiving lease N+1 "
        "(exercises the coordinator's re-dispatch path)",
    )
    worker_parser.add_argument(
        "--coordinator-key",
        default=None,
        metavar="PATH",
        help="the coordinator's public key file (<keyfile>.pub on its host)",
    )

    keygen_parser = subparsers.add_parser(
        "keygen",
        help="generate a static transport keypair for the secure transport",
    )
    keygen_parser.add_argument(
        "path",
        metavar="PATH",
        help="secret key file to create (mode 0600); the public key lands "
        "in PATH.pub",
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
    if args.command == "coordinate":
        return _coordinate_command(args)
    if args.command == "worker":
        return _worker_command(args)
    if args.command == "keygen":
        return _keygen_command(args)
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


def _validate_endpoint(host: str, port: int, *, listen: bool) -> int:
    """Host/port sanity for the distributed subcommands: exit-2 one-liners.

    A typo'd hostname or an out-of-range/privileged port must fail before
    any socket is opened — with the same one-line treatment as an unknown
    experiment name — instead of surfacing as a raw ``socket.gaierror`` or
    ``PermissionError`` traceback mid-run.
    """
    import socket

    if not 0 <= port <= 65535:
        return _fail(f"port {port} outside the valid range 0..65535")
    if port == 0 and not listen:
        return _fail("a worker needs the coordinator's actual port, not 0")
    if 1 <= port <= 1023:
        return _fail(
            f"port {port} is in the privileged range 1..1023; pick one >= 1024"
        )
    try:
        socket.getaddrinfo(host, None)
    except socket.gaierror as error:
        return _fail(f"cannot resolve host {host!r} ({error})")
    return 0


def _load_credential(
    keyfile: str | None,
    *,
    authorized_keys: str | None = None,
    coordinator_key: str | None = None,
    role: str,
):
    """Build a TransportCredential from CLI key-file flags, or exit 2.

    Returns ``(credential, 0)`` on success, ``(None, 2)`` after printing the
    one-line error.  ``role`` is "coordinate" or "worker" and decides which
    companion flag is required alongside ``--keyfile``.
    """
    from ..core.errors import KeyFileError
    from ..net import (
        TransportCredential,
        load_allowlist,
        load_keypair,
        load_public_key,
    )

    if keyfile is None:
        return None, _fail(
            f"--transport secure needs --keyfile "
            f"(generate one with: python -m repro.experiments keygen <path>)"
        )
    if role == "coordinate" and authorized_keys is None:
        return None, _fail(
            "--transport secure needs --authorized-keys "
            "(one worker public key per line)"
        )
    if role == "worker" and coordinator_key is None:
        return None, _fail(
            "--transport secure needs --coordinator-key "
            "(the coordinator's .pub file)"
        )
    try:
        keypair = load_keypair(keyfile)
        authorized = (
            frozenset()
            if authorized_keys is None
            else load_allowlist(authorized_keys)
        )
        remote_public = (
            None if coordinator_key is None else load_public_key(coordinator_key)
        )
    except KeyFileError as error:
        return None, _fail(str(error))
    return (
        TransportCredential(
            keypair=keypair, authorized=authorized, remote_public=remote_public
        ),
        0,
    )


def _jobs(names: list[str], args: argparse.Namespace, *, sharded: bool):
    """Every requested run as a validated Job: ``(jobs, 0)`` or ``(None, 2)``.

    Building them all up front means usage mistakes exit with one line
    before any trial runs, while genuine failures inside trial code keep
    their tracebacks.
    """
    try:
        jobs = [
            Job(name, args.scale, args.seed, args.backend, args.scheme)
            for name in names
        ]
        if sharded:
            for job in jobs:
                job.require_shardable()
    except (KeyError, UsageError) as error:
        return None, _fail(error.args[0])
    return jobs, 0


def _print_result(result: RunResult) -> None:
    status = "cached" if result.cached else f"{result.elapsed_seconds:.2f}s"
    header = f"scale={result.scale}, seed={result.seed}"
    if result.backend != "sim":
        header += f", backend={result.backend}"
    if result.scheme:
        header += f", scheme={result.scheme}"
    if result.workers_seen:
        header += f", dist-workers={result.workers_seen}"
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
    if args.dist is not None and args.dist < 1:
        return _fail(f"--dist must be >= 1 worker process, got {args.dist}")
    if args.dist is not None and args.workers != 1:
        return _fail(
            "--workers selects the in-process pool and --dist the distributed "
            "coordinator; pass one or the other"
        )
    if args.transport != "plain" and args.dist is None:
        return _fail(
            "--transport applies to the distributed wire; pair it with --dist "
            "(or use the coordinate/worker subcommands)"
        )
    jobs, code = _jobs(args.names, args, sharded=args.dist is not None)
    if code:
        return code
    for job in jobs:
        if args.dist is not None:
            from .distributed import WorkersExitedError, run_distributed

            try:
                result = run_distributed(
                    **asdict(job),
                    out_dir=args.out,
                    force=args.force,
                    workers=args.dist,
                    transport=args.transport,
                )
            except WorkersExitedError as error:
                # Not a usage error: the run started and cannot finish.
                import sys

                print(f"error: {error}", file=sys.stderr)
                return 1
        else:
            result = run_experiment(
                **asdict(job), workers=args.workers, out_dir=args.out, force=args.force
            )
        _print_result(result)
    return 0


def _coordinate_command(args: argparse.Namespace) -> int:
    from .distributed import run_distributed

    jobs, code = _jobs([args.name], args, sharded=True)
    if code:
        return code
    if args.chunk < 1:
        return _fail(f"--chunk must be >= 1, got {args.chunk}")
    if args.lease_seconds <= 0:
        return _fail(f"--lease-seconds must be positive, got {args.lease_seconds}")
    if args.min_workers < 1:
        return _fail(f"--min-workers must be >= 1, got {args.min_workers}")
    code = _validate_endpoint(args.host, args.port, listen=True)
    if code:
        return code
    credential = None
    if args.transport == "secure":
        credential, code = _load_credential(
            args.keyfile, authorized_keys=args.authorized_keys, role="coordinate"
        )
        if code:
            return code
    elif args.keyfile or args.authorized_keys:
        return _fail("--keyfile/--authorized-keys require --transport secure")
    result = run_distributed(
        **asdict(jobs[0]),
        out_dir=args.out,
        force=args.force,
        host=args.host,
        port=args.port,
        workers=0,
        min_workers=args.min_workers,
        chunk_size=args.chunk,
        lease_seconds=args.lease_seconds,
        timeout=args.timeout,
        transport=args.transport,
        credential=credential,
        log=print,
    )
    print(
        f"distributed run complete: experiment={result.name} "
        f"trials={result.trial_count} workers={result.workers_seen} "
        f"redispatched={result.redispatched} cached={str(result.cached).lower()}"
    )
    _print_result(result)
    return 0


def _worker_command(args: argparse.Namespace) -> int:
    import sys

    from .distributed import run_worker

    code = _validate_endpoint(args.host, args.port, listen=False)
    if code:
        return code
    credential = None
    if args.transport == "secure":
        credential, code = _load_credential(
            args.keyfile, coordinator_key=args.coordinator_key, role="worker"
        )
        if code:
            return code
    elif args.keyfile or args.coordinator_key:
        return _fail("--keyfile/--coordinator-key require --transport secure")
    return run_worker(
        host=args.host,
        port=args.port,
        label=args.label,
        crash_after_leases=args.crash_after_leases,
        connect_timeout=args.connect_timeout,
        transport=args.transport,
        credential=credential,
        log=lambda message: print(message, file=sys.stderr),
    )


def _keygen_command(args: argparse.Namespace) -> int:
    from ..core.errors import KeyFileError
    from ..net import write_keypair

    try:
        pair = write_keypair(args.path)
    except KeyFileError as error:
        return _fail(str(error))
    print(f"secret key: {args.path} (mode 0600 — keep it on this host)")
    print(f"public key: {args.path}.pub")
    print(f"public hex: {pair.public.hex()}")
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
