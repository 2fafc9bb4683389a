"""Experiment harness: a registry of named experiments plus a runner."""

from .registry import REGISTRY, Experiment, experiment_names, get_experiment, register
from .runner import Job, RunResult, UsageError, experiment_rows, run_experiment
from .setup_latency import measure_setup
from .tables import format_table
from .throughput import ThroughputResult, aggregate_throughput_vs_flows, measure_throughput

__all__ = [
    "REGISTRY",
    "Experiment",
    "Job",
    "RunResult",
    "UsageError",
    "register",
    "get_experiment",
    "experiment_names",
    "run_experiment",
    "experiment_rows",
    "format_table",
    "measure_throughput",
    "aggregate_throughput_vs_flows",
    "ThroughputResult",
    "measure_setup",
]
