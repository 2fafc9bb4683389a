"""The performance ledger: ``BENCH_trajectory.json``, one entry per PR.

Two kinds of measurement exist in this repo and the ledger holds both, side
by side, under one label (a PR number or commit):

* the **gates** — bench experiments whose rows time a reference side
  against a fast side (``distsweep``: one worker against two or more).
  :data:`GATES` is the only place their names are written down; an entry
  records, per gate, the median of *both absolute sides* in milliseconds
  next to the median and minimum speedup, so a ratio that moves can be
  attributed to the side that moved.  No gate has a target: the ledger
  reports, it does not enforce.
* the **perfbench medians** — the five end-to-end metrics of every
  workload ``perfbench/run.py`` measures, with the host manifest of the
  runs they came from.

Both are read from files the existing commands already write:
``results/<gate>.json`` (``repro-experiments run <gate>``) and the result
documents of ``perfbench/run.py --out-dir``.  ``scripts/bench_history.py``
is the CLI wrapper (``collect`` / ``render``); :func:`render_trend` also
feeds the generated scenario report (:mod:`repro.experiments.report`).

Entries deliberately carry no timestamps: collecting the same inputs twice
leaves the file byte-identical.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .runner import serialise_artifact

TRAJECTORY_VERSION = 2

#: Gate (= bench experiment) names.  ``distsweep`` is report-only: sharding
#: fig11 is bounded by its fixed per-run cost (docs/ARCHITECTURE.md,
#: "Distributed execution"), so the ledger records its seconds and asserts
#: no ratio.
GATES = frozenset({"distsweep"})

#: The end-to-end metrics ``BENCHMARK.json`` declares (tests/test_docs.py
#: checks the two lists stay equal).
END_TO_END_METRICS = (
    "goodput_MBps",
    "round_ms_p50",
    "cpu_s_per_MB",
    "peak_rss_MB",
    "setup_s",
)

#: Seeds of one workload a ledger entry needs before it records a median.
MIN_PERFBENCH_SEEDS = 3

_COLUMNS = ("reference_ms", "fast_ms", "speedup")


def _median(values: list[float]) -> float:
    return round(statistics.median(values), 4)


def summarise_gate(document: dict) -> dict:
    """Condense one bench artifact's rows into the ledger fields.

    Rows that measured something carry ``reference_ms``, ``fast_ms`` and
    ``speedup``; the ledger keeps the median of each plus the worst
    speedup.  A gate that cannot run on the current host (``distsweep`` on a
    single-CPU runner) reports only ``"skipped"`` rows; those summarise to
    the reason and render as ``n/a``.

    >>> doc = {"rows": [{"reference_ms": 24.0, "fast_ms": 2.0, "speedup": 12.0},
    ...                 {"reference_ms": 30.0, "fast_ms": 1.5, "speedup": 20.0},
    ...                 {"reference_ms": 28.0, "fast_ms": 2.0, "speedup": 14.0}]}
    >>> summarise_gate(doc)
    {'reference_ms': 28.0, 'fast_ms': 2.0, 'speedup': 14.0, 'min_speedup': 12.0, 'rows': 3}
    >>> summarise_gate({"rows": [{"skipped": "host has 1 CPU(s)"}]})
    {'skipped': 'host has 1 CPU(s)', 'rows': 1}
    """
    rows = [row for row in document.get("rows", []) if isinstance(row, dict)]
    measured = [row for row in rows if "speedup" in row]
    if not measured:
        skipped = [str(row["skipped"]) for row in rows if "skipped" in row]
        if skipped:
            return {"skipped": skipped[0], "rows": len(skipped)}
        raise ValueError("bench artifact has no rows with a 'speedup' field")
    try:
        columns = {
            name: [float(row[name]) for row in measured] for name in _COLUMNS
        }
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(
            f"bench rows must carry numeric {', '.join(_COLUMNS)} columns ({error!r})"
        ) from None
    return {
        **{name: _median(values) for name, values in columns.items()},
        "min_speedup": round(min(columns["speedup"]), 4),
        "rows": len(measured),
    }


_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def _malformed(directory: Path, error: Exception) -> ValueError:
    return ValueError(f"{directory} holds a malformed perfbench document ({error!r})")


def summarise_perfbench(directory: Path) -> dict:
    """Medians of the end-to-end metrics per workload, plus the host manifest.

    ``directory`` holds the ``*-trace0.json`` documents one or more
    ``perfbench/run.py --out-dir`` runs wrote; the seeds of one workload
    reduce to their median, and a workload with fewer than
    :data:`MIN_PERFBENCH_SEEDS` of them is refused — one run is a sample,
    not a median.  The manifest is the first document's (one ledger entry
    is one host and one commit): its ``commit`` is the one the runs that
    knew theirs agree on, and a directory whose runs name two is refused.
    """
    runs: dict[str, list[dict]] = {}
    try:
        for path in sorted(Path(directory).glob("*-trace0.json")):
            document = json.loads(path.read_text(encoding="utf-8"))
            runs.setdefault(document["workload"], []).append(document)
        manifests = [d["manifest"] for documents in runs.values() for d in documents]
        commits = {m.get("commit", "unknown") for m in manifests} - {"unknown"}
    except _MALFORMED as error:
        raise _malformed(directory, error) from None
    if not runs:
        raise ValueError(f"{directory} holds no perfbench documents (*-trace0.json)")
    for workload, documents in sorted(runs.items()):
        if len(documents) < MIN_PERFBENCH_SEEDS:
            raise ValueError(
                f"{directory} holds {len(documents)} *-trace0.json run(s) of "
                f"{workload!r}; a ledger entry takes the median of at least "
                f"{MIN_PERFBENCH_SEEDS} seeds"
            )
    if len(commits) > 1:
        raise ValueError(
            f"{directory} mixes runs of commits {', '.join(sorted(commits))}; "
            "a ledger entry is one commit"
        )
    try:
        workloads = {
            workload: {
                "runs": len(documents),
                "failed": sum(document["failed"] for document in documents),
                **{
                    metric: _median(
                        [float(d["metrics"][metric]["value"]) for d in documents]
                    )
                    for metric in END_TO_END_METRICS
                },
            }
            for workload, documents in sorted(runs.items())
        }
    except _MALFORMED as error:
        raise _malformed(directory, error) from None
    commit = commits.pop() if commits else "unknown"
    return {"manifest": {**manifests[0], "commit": commit}, "workloads": workloads}


def load_trajectory(path: Path) -> dict:
    """Load an existing ledger file, or start a fresh one."""
    path = Path(path)
    if not path.is_file():
        return {"version": TRAJECTORY_VERSION, "entries": []}
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("version") != TRAJECTORY_VERSION or not isinstance(
        document.get("entries"), list
    ):
        raise ValueError(f"{path} is not a version-{TRAJECTORY_VERSION} trajectory file")
    return document


def upsert_entry(trajectory: dict, entry: dict) -> dict:
    """Replace the entry with the same label in place, or append a new one.

    Re-running collection for one label (a re-triggered CI run) updates that
    label's measurements without duplicating or re-ordering history.

    >>> trajectory = {"version": 2, "entries": [{"label": "pr1", "gates": {}}]}
    >>> updated = upsert_entry(trajectory, {"label": "pr1", "gates": {"x": 1}})
    >>> [e["label"] for e in updated["entries"]]
    ['pr1']
    >>> updated = upsert_entry(updated, {"label": "pr2", "gates": {}})
    >>> [e["label"] for e in updated["entries"]]
    ['pr1', 'pr2']
    """
    entries = list(trajectory.get("entries", []))
    for index, existing in enumerate(entries):
        if existing.get("label") == entry["label"]:
            entries[index] = entry
            break
    else:
        entries.append(entry)
    return {"version": TRAJECTORY_VERSION, "entries": entries}


def collect(
    label: str, results_dir: Path, path: Path, perfbench_dir: Path | None = None
) -> tuple[dict, list[str]]:
    """Upsert ``label``'s entry into the ledger file at ``path``.

    Reads ``results_dir/<gate>.json`` for every gate and, if given, the
    perfbench documents in ``perfbench_dir``.  Returns the ledger plus the
    gates that had no artifact — those degrade to absent keys rather than
    failures, so a partial bench run still records what it measured.
    """
    gates: dict[str, dict] = {}
    missing: list[str] = []
    for gate in sorted(GATES):
        artifact = Path(results_dir) / f"{gate}.json"
        if not artifact.is_file():
            missing.append(gate)
            continue
        document = json.loads(artifact.read_text(encoding="utf-8"))
        gates[gate] = summarise_gate(document)
    entry = {"label": label, "gates": gates}
    if perfbench_dir is not None:
        entry["perfbench"] = summarise_perfbench(perfbench_dir)
    trajectory = upsert_entry(load_trajectory(path), entry)
    Path(path).write_text(serialise_artifact(trajectory), encoding="utf-8")
    return trajectory, missing


def _gate_cell(measured: dict | None) -> str:
    if measured is None:
        return "—"
    if "skipped" in measured:
        return "n/a"
    cell = f"{measured['speedup']:.3g}×"
    if measured.get("reference_ms") is not None:
        cell += f" ({measured['reference_ms']:.4g} → {measured['fast_ms']:.4g} ms)"
    return cell


def render_trend(trajectory: dict) -> str:
    """The ledger as markdown: the gate table, then the perfbench medians.

    The gate table has one column per gate of :data:`GATES`; a gate retired
    from it keeps its past readings in the ledger file but leaves the table
    (``pr7`` below recorded only such a gate).  A gate cell reads
    ``speedup× (reference → fast ms)``, all three medians over the gate's
    rows (entries migrated from the ratio-only schema have no milliseconds
    to show).  Gates a host could not run render as
    ``n/a``; gates with no artifact at all render as ``—``.  Entries with
    perfbench runs add one row per workload and a line naming the host.

    >>> print(render_trend({"version": 2, "entries": [
    ...     {"label": "pr5", "gates": {
    ...         "distsweep": {"reference_ms": 180.0, "fast_ms": 120.0, "speedup": 1.5}}},
    ...     {"label": "pr6", "gates": {"distsweep": {"skipped": "host has 1 CPU(s)"}}},
    ...     {"label": "pr7", "gates": {"retired": {"target": 2.0, "speedup": 9.0}}}]}))
    | label | distsweep |
    |---|---|
    | pr5 | 1.5× (180 → 120 ms) |
    | pr6 | n/a |
    | pr7 | — |
    """
    entries = trajectory.get("entries", [])
    gate_names = sorted(GATES)
    lines = [
        "| label | " + " | ".join(gate_names) + " |",
        "|" + "---|" * (len(gate_names) + 1),
    ]
    for entry in entries:
        cells = [_gate_cell(entry.get("gates", {}).get(gate)) for gate in gate_names]
        lines.append(f"| {entry.get('label', '?')} | " + " | ".join(cells) + " |")
    measured = [entry for entry in entries if "perfbench" in entry]
    if measured:
        lines += [
            "",
            "| label | workload | runs | " + " | ".join(END_TO_END_METRICS) + " |",
            "|" + "---|" * (len(END_TO_END_METRICS) + 3),
        ]
        for entry in measured:
            for workload, medians in entry["perfbench"]["workloads"].items():
                cells = [f"{medians[metric]:.4g}" for metric in END_TO_END_METRICS]
                lines.append(
                    f"| {entry['label']} | {workload} | {medians['runs']} | "
                    + " | ".join(cells)
                    + " |"
                )
        for entry in measured:
            host = entry["perfbench"]["manifest"]
            lines += [
                "",
                f"`{entry['label']}` host: {host.get('cpu_count')} CPU(s), "
                f"Python {host.get('python')}, numpy {host.get('numpy')}, "
                f"{host.get('kernel')} kernel, {host.get('platform')}",
            ]
    return "\n".join(lines)
