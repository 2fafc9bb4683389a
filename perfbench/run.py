#!/usr/bin/env python3
"""perfbench: wall-clock end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload slicing-churn --seed 1 --seconds 20 --trace 0

Runs verified transfer rounds (see ``workloads.py``) for ``--seconds`` and
prints every end-to-end metric; ``--trace 1`` is a separate run over a fixed
number of rounds with span wrappers installed (see ``spans.py``) that prints
the per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
when any message was not delivered byte-identical.  Metric names, units and
bounds live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Set before the interpreter starts (by re-executing) unless the caller set
#: them: ``SlicingRuntime.add_relay`` seeds relays from ``hash(address)``, and
#: numpy's BLAS would otherwise start a second (idle) thread.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: Interpreters whose set-up is timed per run, this one included (the median is reported).
SETUP_PROBES = 5

WARM_UP_ROUND = 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="one round per pass and no set-up probes: delivery check only")
    parser.add_argument("--out-dir", type=Path, default=HERE / "results",
                        help="where the result document and the span file go")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- measuring ---------------------------------------------------------------------


def run_round(workload, host, seed: int, index: int):
    """One verified round of ``workload``; returns its log."""
    from workloads import RoundLog, round_seed

    gc.collect()  # outside the timed region, so a round starts from a settled heap
    log = RoundLog(host, index)
    if host.tracer is not None:
        host.tracer.round_id = index
    with log.round():
        workload.run_round(log, round_seed(seed, index))
    return log


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up seconds of a fresh interpreter, as it reports them itself."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    return float(subprocess.run(command, check=True, capture_output=True, text=True).stdout)


def time_fig11(scratch: Path) -> dict[str, float]:
    """Three untraced ``fig11`` runs: wall seconds, seconds in trials, the rest's share."""
    from repro.experiments import runner

    execute_trial = runner.execute_trial
    inside = [0.0]

    def timed(payload):
        start = time.perf_counter()
        try:
            return execute_trial(payload)
        finally:
            inside[0] += time.perf_counter() - start

    samples = []
    runner.execute_trial = timed
    try:
        for _ in range(3):
            inside[0] = 0.0
            with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
                start = time.perf_counter()
                runner.run_experiment("fig11", scale=1.0, force=True, out_dir=out_dir)
                samples.append((time.perf_counter() - start, inside[0]))
    finally:
        runner.execute_trial = execute_trial
    run_s, trials_s = sorted(samples)[1]
    return {
        "experiments.runner.fig11_run_s": run_s,
        "experiments.runner.trials_s": trials_s,
        "experiments.runner.overhead_share": (run_s - trials_s) / run_s,
    }


class HostNoise:
    """Noise witnesses over the measured region, from /proc/stat and getrusage."""

    def __init__(self, host) -> None:
        self._host = host
        self._first_sample = len(host.samples)
        self._cpu = self._proc_stat()
        self._usage = resource.getrusage(resource.RUSAGE_SELF)

    @staticmethod
    def _proc_stat() -> list[int]:
        try:
            with open("/proc/stat", encoding="ascii") as handle:
                return [int(field) for field in handle.readline().split()[1:]]
        except (OSError, ValueError):
            return []

    def metrics(self) -> dict[str, float]:
        cpu = [after - before for before, after in zip(self._cpu, self._proc_stat())]
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "host.slowdown_p50": statistics.median(
                value for _, _, value in self._host.samples[self._first_sample:]
            ),
            # /proc/stat: user nice system idle iowait irq softirq steal ...
            "host.steal_share": cpu[7] / sum(cpu[:8]) if len(cpu) > 7 and sum(cpu[:8]) else 0.0,
            "host.nivcsw": usage.ru_nivcsw - self._usage.ru_nivcsw,
            "host.minflt": usage.ru_minflt - self._usage.ru_minflt,
        }


# -- metrics -----------------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def driver_timings(logs: list) -> dict[str, float]:
    healthy = [s for log in logs for s in log.healthy_burst_s]
    degraded = [s for log in logs for s in log.degraded_burst_s]
    return {
        "driver.establish_ms_p50": median_ms([s for log in logs for s in log.establish_s]),
        "driver.burst_ms_p50": median_ms(healthy + degraded),
        "driver.burst_ms_p90": percentile(healthy + degraded, 0.9) * 1e3,
        "driver.healthy_burst_ms_p50": median_ms(healthy),
        "driver.degraded_burst_ms_p50": median_ms(degraded),
        "driver.raw_round_ms_p50": median_ms([log.raw_round_s for log in logs]),
        "driver.raw_goodput_MBps": statistics.median(
            log.verified_bytes / 1e6 / log.raw_data_wall_s for log in logs
        ),
    }


def end_to_end_metrics(logs: list, setup_samples: list[float]) -> dict[str, float]:
    verified_mb = sum(log.verified_bytes for log in logs) / 1e6
    return {
        "goodput_MBps": statistics.median(
            log.verified_bytes / 1e6 / log.data_wall_s for log in logs
        ),
        "round_ms_p50": median_ms([log.round_s for log in logs]),
        "cpu_s_per_MB": sum(log.data_cpu_s for log in logs) / verified_mb if verified_mb else 0.0,
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_samples),
    }


def per_layer_metrics(tracer, traced: list, untraced: list) -> dict[str, float]:
    from spans import LAYERS

    summary = tracer.summary({log.index: log.round_s / log.raw_round_s for log in traced})
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = summary[layer]["self_s"]
        metrics[f"{layer}.calls"] = summary[layer]["calls"]
    metrics["crypto.symmetric.bytes"] = summary["crypto.symmetric"]["work"]
    counters = {name: sum(log.counters[name] for log in traced) for name in traced[0].counters}
    for name in ("packets_received", "messages_delivered", "regenerated_slices"):
        metrics[f"core.relay.{name}"] = counters[name]
    metrics["overlay.simulator.events"] = counters["events"]
    for name in ("packets_sent", "bytes_sent", "packets_dropped"):
        metrics[f"overlay.node.{name}"] = counters[name]
    verified = sum(log.verified_bytes for log in traced)
    metrics["overlay.node.wire_bytes_per_payload_byte"] = (
        counters["bytes_sent"] / verified if verified else 0.0
    )
    metrics["driver.self_s"] = summary["driver"]["self_s"]
    metrics["driver.trace_overhead"] = statistics.median(
        log.round_s for log in traced
    ) / statistics.median(log.round_s for log in untraced)
    return metrics


def layer_predictions(workload: str, metrics: dict[str, float]) -> list[tuple[bool, str]]:
    """The layer shares the issue predicted, checked against the traced run.

    Reported, never tuned away and never part of the exit code: a failed
    prediction is a finding about the program or about the benchmark.
    """
    from spans import LAYERS

    total = metrics["driver.self_s"] + sum(metrics[f"{layer}.self_s"] for layer in LAYERS)

    def share(*layers: str) -> float:
        return sum(metrics[f"{layer}.self_s"] for layer in layers) / total

    checks = []
    cipher = share("crypto.symmetric")
    if workload == "circuit-bulk":
        checks.append((cipher >= 0.60, f"crypto.symmetric >= 60% of self time: {cipher:.1%}"))
    elif workload in ("slicing-churn", "slicing-manyflows"):
        checks.append((cipher <= 0.10, f"crypto.symmetric <= 10% of self time: {cipher:.1%}"))
    socket_calls = metrics["overlay.aio.calls"] + metrics["core.packet.calls"]
    if workload == "aio-loopback":
        sockets = share("overlay.aio", "core.packet")
        checks.append(
            (sockets >= 0.35, f"overlay.aio + core.packet >= 35% of self time: {sockets:.1%}")
        )
    else:
        checks.append(
            (socket_calls == 0, f"overlay.aio + core.packet never called: {socket_calls} calls")
        )
    regenerated = metrics["core.relay.regenerated_slices"]
    checks.append(
        ((regenerated > 0) == (workload == "slicing-churn"),
         f"core.relay.regenerated_slices > 0 on slicing-churn only: {regenerated}")
    )
    return checks


def measure_end_to_end(args, workload, host, setup_s: float) -> tuple[list, dict, dict]:
    """The untraced run: rounds for ``--seconds``; returns (logs, metrics, samples)."""
    setup_samples = [setup_s]
    if not args.check:
        host.stop()  # the timer would take a tenth of a core away from the probes
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES - 1)]
        host.start()
    noise = HostNoise(host)
    deadline = time.perf_counter() + (0.0 if args.check else args.seconds)
    logs = [run_round(workload, host, args.seed, 1)]
    while time.perf_counter() < deadline:
        logs.append(run_round(workload, host, args.seed, len(logs) + 1))
    metrics = {**end_to_end_metrics(logs, setup_samples), **driver_timings(logs),
               **noise.metrics()}
    samples = {
        "setup_s": setup_samples,
        "round_ms": [log.round_s * 1e3 for log in logs],
        "raw_round_ms": [log.raw_round_s * 1e3 for log in logs],
        "goodput_MBps": [log.verified_bytes / 1e6 / log.data_wall_s for log in logs],
        "data_cpu_s": [log.data_cpu_s for log in logs],
    }
    return logs, metrics, samples


def measure_layers(args, workload, host, spans_path: Path) -> tuple[list, dict]:
    """The traced run: fixed rounds, untraced and then traced; returns (logs, metrics)."""
    from spans import Tracer

    noise = HostNoise(host)
    count = 1 if args.check else max(2, round(args.seconds * workload.traced_rounds_per_second))
    rounds = range(1, count + 1)
    untraced = [run_round(workload, host, args.seed, index) for index in rounds]
    host.tracer = tracer = Tracer()
    tracer.install()
    try:
        traced = [run_round(workload, host, args.seed, index) for index in rounds]
    finally:
        tracer.uninstall()
        host.tracer = None
    metrics = {**per_layer_metrics(tracer, traced, untraced), **driver_timings(untraced),
               **noise.metrics()}
    host.stop()
    fig11 = dict.fromkeys(("experiments.runner.fig11_run_s", "experiments.runner.trials_s",
                           "experiments.runner.overhead_share"), 0.0)
    if workload.times_fig11 and not args.check:
        fig11 = time_fig11(spans_path.parent)
    metrics.update(fig11)
    tracer.write_jsonl(spans_path)
    return untraced + traced, metrics


# -- reporting ---------------------------------------------------------------------


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text(encoding="ascii").strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text(encoding="ascii").strip()
        return head
    except OSError:
        return "unknown"


def native_threads() -> int:
    try:
        status = Path("/proc/self/status").read_text(encoding="ascii")
        return int(status.split("Threads:")[1].split()[0])
    except (OSError, IndexError, ValueError):
        import threading

        return threading.active_count()


def manifest() -> dict:
    import numpy
    from repro.core.gf import active_kernel

    return {
        "commit": commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": active_kernel(),
        "platform": platform.platform(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "threads": native_threads(),
    }


def declared_units() -> dict[str, dict[str, str]]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares, by kind."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {metric["name"]: metric["unit"] for metric in declared[kind]}
            for kind in ("end_to_end", "per_layer")}


def measure_and_report(args: argparse.Namespace, host) -> int:
    first = host.sample()
    host.start()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # Imports, table builds and registries are done; one untimed round fills
    # the lazy rest.  Set-up is this much of a run, and all a probe does.
    imported = time.perf_counter()
    host.sample()
    kernel_s, slowdown = host.window(first, START, imported)
    warm_up = run_round(workload, host, args.seed, WARM_UP_ROUND)
    setup_s = (imported - START - kernel_s) / slowdown + warm_up.round_s
    if args.setup_probe:
        print(repr(setup_s))
        return 0 if warm_up.failed == 0 else 1

    args.out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    samples: dict[str, list[float]] = {}
    declared = declared_units()
    if args.trace:
        logs, metrics = measure_layers(args, workload, host, args.out_dir / f"{stem}.spans.jsonl")
        printed = declared["per_layer"]
    else:
        logs, metrics, samples = measure_end_to_end(args, workload, host, setup_s)
        printed = declared["end_to_end"]
    host.stop()

    units = {**declared["end_to_end"], **declared["per_layer"]}
    attempted = sum(log.sent for log in logs)
    failed = sum(log.failed for log in logs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in printed.items()},
    }
    document = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "rounds": len(logs), "manifest": manifest(), **result,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "samples": samples,
    }
    (args.out_dir / f"{stem}.json").write_text(json.dumps(document, indent=1) + "\n",
                                               encoding="utf-8")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: closed loop, one "
          f"client, one process, {document['manifest']['threads']} thread(s); {len(logs)} rounds, "
          f"{attempted} messages of 1500 B sent, {failed} not delivered byte-identical")
    if workload.note:
        print(f"note: {workload.note}")
    print("manifest: " + json.dumps(document["manifest"], sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    if args.trace:
        for held, text in layer_predictions(workload.name, metrics):
            print(f"prediction {'ok' if held else 'FAILED'}: {text}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: nothing to benchmark, {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    for name in ("REPRO_AIO_HOST", "REPRO_AIO_TRANSPORT"):
        os.environ.pop(name, None)  # aio-loopback means plain TCP on 127.0.0.1

    from hostspeed import HostSpeed

    host = HostSpeed()
    try:
        return measure_and_report(args, host)
    finally:
        host.stop()


if __name__ == "__main__":
    missing = {name: value for name, value in PINNED_ENV.items() if name not in os.environ}
    if missing:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **missing})
    sys.exit(main())
