"""Experiment harness: a registry of named experiments plus a runner."""

from .registry import REGISTRY, Experiment, experiment_names, get_experiment, register
from .report import build_report, render_markdown, write_report
from .runner import Job, RunResult, UsageError, experiment_rows, run_experiment
from .scenarios import (
    ScenarioCell,
    ScenarioMatrix,
    ScenarioSpecError,
    expand_matrix,
    load_matrix,
    parse_matrix,
    register_matrix,
    register_matrix_file,
)
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
    "ScenarioCell",
    "ScenarioMatrix",
    "ScenarioSpecError",
    "parse_matrix",
    "load_matrix",
    "expand_matrix",
    "register_matrix",
    "register_matrix_file",
    "build_report",
    "render_markdown",
    "write_report",
]
