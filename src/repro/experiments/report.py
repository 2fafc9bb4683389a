"""Consolidated scenario report: merge matrix cells into one artifact.

The report stage is the other half of :mod:`repro.experiments.scenarios`:
after the cells of a matrix have run (``repro-experiments run --matrix
spec.json``, optionally ``--dist N``), ``repro-experiments report`` merges
their canonical artifacts from the results directory into

* ``results/scenario_report.json`` — the machine-readable consolidated
  document (per-cell scheme metrics, best-scheme assignments, regression
  deltas against a committed baseline snapshot), and
* ``docs/scenario-report.md`` — the same content rendered as markdown.

Missing or partial cells degrade gracefully: they are listed with their
status instead of failing the merge, so a half-finished sweep still reports
what it measured.  Everything in both outputs is a pure function of the
spec, the cell artifacts and the baseline file — no
timestamps, no environment — so report generation is byte-deterministic
for deterministic cells (asserted in ``tests/test_scenario_report.py`` and
by the CI ``scenario-smoke`` job).
"""

from __future__ import annotations

import json
from pathlib import Path

from .runner import serialise_artifact
from .scenarios import ScenarioMatrix, expand_matrix, format_axis_value, label_axes

REPORT_VERSION = 1

#: Metric key -> (direction, table label).  ``direction`` picks the winner:
#: ``max`` means more is better, ``min`` less.
METRICS: dict[str, tuple[str, str]] = {
    "throughput_mbps": ("max", "throughput (Mbit/s)"),
    "setup_seconds": ("min", "setup (s)"),
    "source_anonymity": ("max", "source anonymity"),
    "destination_anonymity": ("max", "destination anonymity"),
    "success_probability": ("max", "delivery success"),
    "unlinkability": ("max", "unlinkability"),
}

#: Metrics compared against the baseline snapshot.
DELTA_METRICS = (
    "throughput_mbps",
    "setup_seconds",
    "source_anonymity",
    "success_probability",
    "unlinkability",
)

#: Relative change below which a baseline delta is reported as unchanged.
DELTA_EPSILON = 1e-9


def _load_cell_schemes(artifact: Path, cell_name: str) -> dict[str, dict] | None:
    """Per-scheme metric rows from one cell artifact, or None if unusable."""
    try:
        document = json.loads(artifact.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if document.get("experiment") != cell_name:
        return None
    schemes: dict[str, dict] = {}
    for row in document.get("rows", []):
        if isinstance(row, dict) and "scheme" in row:
            schemes[row["scheme"]] = {
                metric: row[metric] for metric in METRICS if metric in row
            }
    return schemes or None


def _best_schemes(schemes: dict[str, dict], order: tuple[str, ...]) -> dict[str, str]:
    """Winning scheme per metric (ties break in matrix scheme order)."""
    best: dict[str, str] = {}
    for metric, (direction, _label) in METRICS.items():
        candidates = [
            (scheme, schemes[scheme][metric])
            for scheme in order
            if scheme in schemes and metric in schemes[scheme]
        ]
        if not candidates:
            continue
        pick = max if direction == "max" else min
        best[metric] = pick(candidates, key=lambda pair: pair[1])[0]
    return best


def collect_cells(matrix: ScenarioMatrix, results_dir: Path) -> list[dict]:
    """One report entry per cell, in expansion order, with degrade-soft status."""
    entries = []
    for cell in expand_matrix(matrix):
        artifact = Path(results_dir) / f"{cell.name}.json"
        schemes = _load_cell_schemes(artifact, cell.name) if artifact.exists() else None
        if schemes is None:
            status = "missing"
            schemes = {}
        elif set(matrix.schemes) - set(schemes):
            status = "partial"
        else:
            status = "ok"
        entry = {
            "cell": cell.name,
            "axes": cell.axes,
            "label_axes": label_axes(cell.axes, matrix.listed_axes),
            "status": status,
            "schemes": {
                scheme: schemes[scheme] for scheme in matrix.schemes if scheme in schemes
            },
        }
        if schemes:
            entry["best"] = _best_schemes(schemes, matrix.schemes)
        entries.append(entry)
    return entries


def load_baseline(path: Path) -> dict:
    """Read a baseline report snapshot, rejecting shapes the deltas cannot use.

    The file is input from outside the program, so each problem is one
    ``ValueError`` line naming the file, never a traceback further in.
    """
    try:
        baseline = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"baseline {path} is not JSON ({error})") from None
    if not isinstance(baseline, dict):
        raise ValueError(f"baseline {path}: the top level must be an object")
    cells = baseline.get("cells", [])
    if not isinstance(cells, list) or not all(
        isinstance(entry, dict) and isinstance(entry.get("cell"), str) for entry in cells
    ):
        raise ValueError(
            f"baseline {path}: 'cells' must be a list of objects with a string 'cell'"
        )
    for entry in cells:
        schemes = entry.get("schemes", {})
        if not isinstance(schemes, dict) or not all(
            isinstance(metrics, dict) for metrics in schemes.values()
        ):
            raise ValueError(
                f"baseline {path}: 'schemes' of cell {entry['cell']!r} must be an "
                "object of per-scheme objects"
            )
    return baseline


def _baseline_deltas(cells: list[dict], baseline: dict) -> list[dict]:
    """Per-(cell, scheme, metric) relative changes against a baseline report."""
    baseline_cells = {
        entry["cell"]: entry.get("schemes", {}) for entry in baseline.get("cells", [])
    }
    deltas = []
    for entry in cells:
        reference = baseline_cells.get(entry["cell"])
        if not reference:
            continue
        for scheme, metrics in entry["schemes"].items():
            for metric in DELTA_METRICS:
                if metric not in metrics or metric not in reference.get(scheme, {}):
                    continue
                current = float(metrics[metric])
                previous = float(reference[scheme][metric])
                magnitude = max(abs(previous), abs(current), 1e-12)
                relative = (current - previous) / magnitude
                deltas.append(
                    {
                        "cell": entry["cell"],
                        "scheme": scheme,
                        "metric": metric,
                        "baseline": previous,
                        "current": current,
                        "relative_change": round(relative, 6),
                        "regressed": bool(abs(relative) > DELTA_EPSILON),
                    }
                )
    return deltas


def build_report(
    matrix: ScenarioMatrix,
    results_dir: str | Path,
    baseline: dict | None = None,
    baseline_source: str | None = None,
) -> dict:
    """Assemble the consolidated report document (pure data, no I/O side effects)."""
    cells = collect_cells(matrix, Path(results_dir))
    statuses = [entry["status"] for entry in cells]
    best_counts: dict[str, dict[str, int]] = {}
    for entry in cells:
        for metric, scheme in entry.get("best", {}).items():
            per_metric = best_counts.setdefault(metric, dict.fromkeys(matrix.schemes, 0))
            per_metric[scheme] += 1
    report = {
        "version": REPORT_VERSION,
        "matrix": {
            "name": matrix.name,
            "axes": matrix.axes,
            "listed_axes": list(matrix.listed_axes),
            "schemes": list(matrix.schemes),
            "profile": matrix.profile,
            "messages": matrix.messages,
            "num_nodes": matrix.num_nodes,
        },
        "summary": {
            "cells": len(cells),
            "complete": statuses.count("ok"),
            "partial": statuses.count("partial"),
            "missing": statuses.count("missing"),
            "best_counts": best_counts,
        },
        "cells": cells,
    }
    if baseline is not None:
        deltas = _baseline_deltas(cells, baseline)
        report["baseline"] = {
            "source": baseline_source or "",
            "deltas": deltas,
            "regressions": sum(1 for delta in deltas if delta["regressed"]),
        }
    return report


# -- markdown rendering ------------------------------------------------------------


def _fmt(value: float) -> str:
    """Deterministic compact number rendering for tables."""
    return f"{value:.4g}"


def _cell_heading(entry: dict) -> str:
    label = entry["label_axes"] or entry["axes"]
    settings = ", ".join(
        f"{axis}={format_axis_value(label[axis])}" for axis in sorted(label)
    )
    return f"`{entry['cell']}` ({settings})"


def render_markdown(report: dict) -> str:
    """Render the report document as the committed-style markdown page."""
    matrix = report["matrix"]
    summary = report["summary"]
    lines = [
        f"# Scenario report — matrix `{matrix['name']}`",
        "",
        "Generated by `repro-experiments report`; regenerate instead of editing:",
        "",
        "```sh",
        f"repro-experiments run --matrix scenarios/{matrix['name']}.json --out results",
        f"repro-experiments report --matrix scenarios/{matrix['name']}.json --results results",
        "```",
        "",
        "Axis semantics and the spec schema are documented in",
        "[scenarios.md](scenarios.md).",
        "",
        "## Matrix",
        "",
        f"- base profile `{matrix['profile']}`, {matrix['messages']} messages per"
        f" transfer, N={matrix['num_nodes']} overlay nodes",
        f"- schemes: {', '.join(f'`{scheme}`' for scheme in matrix['schemes'])}",
        f"- {summary['cells']} cell(s): {summary['complete']} complete,"
        f" {summary['partial']} partial, {summary['missing']} missing",
        "",
        "| axis | values |",
        "|---|---|",
    ]
    for axis in sorted(matrix["axes"]):
        values = ", ".join(format_axis_value(v) for v in matrix["axes"][axis])
        marker = "**" if axis in matrix["listed_axes"] else ""
        lines.append(f"| {marker}{axis}{marker} | {values} |")
    lines += ["", "## Cells", ""]
    metric_labels = [label for _, label in METRICS.values()]
    for entry in report["cells"]:
        lines.append(f"### {_cell_heading(entry)}")
        lines.append("")
        if entry["status"] == "missing":
            lines += ["_No artifact for this cell; run the matrix first._", ""]
            continue
        if entry["status"] == "partial":
            ran = set(entry["schemes"])
            missing = [s for s in matrix["schemes"] if s not in ran]
            lines += [f"_Partial: no rows for {', '.join(missing)}._", ""]
        lines.append("| scheme | " + " | ".join(metric_labels) + " |")
        lines.append("|" + "---|" * (len(METRICS) + 1))
        for scheme, metrics in entry["schemes"].items():
            cells = [
                _fmt(metrics[metric]) if metric in metrics else "—" for metric in METRICS
            ]
            lines.append(f"| {scheme} | " + " | ".join(cells) + " |")
        best = entry.get("best", {})
        if best:
            lines.append("")
            lines.append(
                "Best: "
                + "; ".join(
                    f"{METRICS[metric][1]} → **{best[metric]}**"
                    for metric in METRICS
                    if metric in best
                )
            )
        lines.append("")
    lines += ["## Best scheme per cell", ""]
    lines.append("| cell | " + " | ".join(metric_labels) + " |")
    lines.append("|" + "---|" * (len(METRICS) + 1))
    for entry in report["cells"]:
        best = entry.get("best", {})
        row = [best.get(metric, "—") for metric in METRICS]
        lines.append(f"| `{entry['cell']}` | " + " | ".join(row) + " |")
    lines.append("")

    baseline = report.get("baseline")
    lines += ["## Regressions vs. baseline", ""]
    if baseline is None:
        lines += ["_No baseline snapshot supplied._", ""]
    else:
        changed = [d for d in baseline["deltas"] if d["regressed"]]
        lines.append(
            f"Compared against `{baseline['source']}`: {len(baseline['deltas'])}"
            f" metric(s) checked, {len(changed)} changed."
        )
        lines.append("")
        if changed:
            lines.append("| cell | scheme | metric | baseline | current | change |")
            lines.append("|---|---|---|---|---|---|")
            for delta in changed:
                lines.append(
                    f"| `{delta['cell']}` | {delta['scheme']} | {delta['metric']} | "
                    f"{_fmt(delta['baseline'])} | {_fmt(delta['current'])} | "
                    f"{delta['relative_change'] * 100:+.2f}% |"
                )
            lines.append("")
    return "\n".join(lines)


# -- top-level entry point ---------------------------------------------------------


def write_report(
    matrix: ScenarioMatrix,
    results_dir: str | Path,
    json_path: str | Path,
    md_path: str | Path | None = None,
    baseline_path: str | Path | None = None,
) -> dict:
    """Build the report and write the JSON (and optionally markdown) outputs.

    A ``baseline_path`` that does not exist is treated as absent rather than
    an error, so a fresh checkout can generate its first report before any
    snapshot has been committed; one that exists but is malformed is a
    ``ValueError`` (:func:`load_baseline`).
    """
    baseline = baseline_source = None
    if baseline_path is not None and Path(baseline_path).is_file():
        baseline = load_baseline(Path(baseline_path))
        baseline_source = Path(baseline_path).as_posix()
    report = build_report(
        matrix, results_dir, baseline=baseline, baseline_source=baseline_source
    )
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(serialise_artifact(report), encoding="utf-8")
    if md_path is not None:
        md_path = Path(md_path)
        md_path.parent.mkdir(parents=True, exist_ok=True)
        md_path.write_text(render_markdown(report) + "\n", encoding="utf-8")
    return report
