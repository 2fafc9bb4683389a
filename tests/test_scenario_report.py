"""Report-merge and bench-trajectory tests.

The report contract: missing or partial cells degrade to a status instead
of failing the merge, best-scheme picks follow each metric's direction with
ties broken in matrix scheme order, baseline deltas flag real changes only,
and both outputs (JSON and markdown) are byte-deterministic functions of
their inputs.
"""

import json

import pytest

from repro.experiments.bench_history import (
    END_TO_END_METRICS,
    collect,
    load_trajectory,
    render_trend,
    summarise_gate,
)
from repro.experiments.report import (
    build_report,
    render_markdown,
    write_report,
)
from repro.experiments.scenarios import expand_matrix, parse_matrix

MATRIX = parse_matrix(
    {
        "name": "rep",
        "axes": {"loss": [0.0, 0.5]},
        "schemes": ["slicing", "onion"],
        "base": {"messages": 8, "num_nodes": 60},
    }
)


def _row(cell, scheme, throughput=5.0, setup=0.1, success=1.0):
    return {
        "cell": cell,
        "scheme": scheme,
        "throughput_mbps": throughput,
        "setup_seconds": setup,
        "source_anonymity": 0.8,
        "destination_anonymity": 0.7,
        "success_probability": success,
    }


def _write_artifact(results_dir, cell_name, rows):
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{cell_name}.json").write_text(
        json.dumps({"experiment": cell_name, "rows": rows}), encoding="utf-8"
    )


@pytest.fixture
def full_results(tmp_path):
    results = tmp_path / "results"
    for cell in expand_matrix(MATRIX):
        _write_artifact(
            results,
            cell.name,
            [
                _row(cell.name, "slicing", throughput=9.0, setup=0.2),
                _row(cell.name, "onion", throughput=4.0, setup=0.1),
            ],
        )
    return results


def test_complete_report_statuses_and_best(full_results):
    report = build_report(MATRIX, full_results)
    assert report["summary"] == {
        "cells": 2,
        "complete": 2,
        "partial": 0,
        "missing": 0,
        "best_counts": {
            "throughput_mbps": {"slicing": 2, "onion": 0},
            "setup_seconds": {"slicing": 0, "onion": 2},
            "source_anonymity": {"slicing": 2, "onion": 0},
            "destination_anonymity": {"slicing": 2, "onion": 0},
            "success_probability": {"slicing": 2, "onion": 0},
        },
    }
    for entry in report["cells"]:
        assert entry["status"] == "ok"
        assert entry["best"]["throughput_mbps"] == "slicing"  # 9.0 > 4.0
        assert entry["best"]["setup_seconds"] == "onion"  # 0.1 < 0.2
        # Equal metrics tie-break to the first scheme in matrix order.
        assert entry["best"]["source_anonymity"] == "slicing"


def test_missing_and_partial_cells_degrade(tmp_path):
    results = tmp_path / "results"
    first, second = expand_matrix(MATRIX)
    _write_artifact(results, first.name, [_row(first.name, "onion")])
    report = build_report(MATRIX, results)
    by_name = {entry["cell"]: entry for entry in report["cells"]}
    assert by_name[first.name]["status"] == "partial"
    assert list(by_name[first.name]["schemes"]) == ["onion"]
    assert by_name[second.name]["status"] == "missing"
    assert by_name[second.name]["schemes"] == {}
    assert "best" not in by_name[second.name]
    # Markdown still renders, flagging both conditions.
    markdown = render_markdown(report)
    assert "_Partial: no rows for slicing._" in markdown
    assert "_No artifact for this cell; run the matrix first._" in markdown


def test_mismatched_artifact_counts_as_missing(tmp_path):
    results = tmp_path / "results"
    first, _ = expand_matrix(MATRIX)
    _write_artifact(results, first.name, [_row("some-other-cell", "onion")])
    (results / f"{first.name}.json").write_text("{broken", encoding="utf-8")
    report = build_report(MATRIX, results)
    assert report["cells"][0]["status"] == "missing"


def test_report_byte_deterministic(full_results, tmp_path):
    paths = []
    for attempt in ("a", "b"):
        json_path = tmp_path / attempt / "report.json"
        md_path = tmp_path / attempt / "report.md"
        write_report(MATRIX, full_results, json_path=json_path, md_path=md_path)
        paths.append((json_path, md_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_baseline_deltas_flag_changes_only(full_results, tmp_path):
    baseline_path = tmp_path / "baseline.json"
    write_report(MATRIX, full_results, json_path=baseline_path)
    # Perturb one metric of one scheme in one cell and re-report.
    first = expand_matrix(MATRIX)[0]
    _write_artifact(
        full_results,
        first.name,
        [
            _row(first.name, "slicing", throughput=18.0, setup=0.2),  # 2x faster
            _row(first.name, "onion", throughput=4.0, setup=0.1),
        ],
    )
    report = build_report(
        MATRIX,
        full_results,
        baseline=json.loads(baseline_path.read_text(encoding="utf-8")),
        baseline_source="baseline.json",
    )
    changed = [d for d in report["baseline"]["deltas"] if d["regressed"]]
    assert len(changed) == 1
    assert changed[0]["cell"] == first.name
    assert changed[0]["scheme"] == "slicing"
    assert changed[0]["metric"] == "throughput_mbps"
    assert changed[0]["relative_change"] == pytest.approx(0.5)
    assert report["baseline"]["regressions"] == 1
    markdown = render_markdown(report)
    assert "+50.00%" in markdown


def test_baseline_with_unknown_cells_ignored(full_results):
    baseline = {"cells": [{"cell": "scn-other-loss0", "schemes": {}}]}
    report = build_report(MATRIX, full_results, baseline=baseline, baseline_source="x")
    assert report["baseline"]["deltas"] == []


def test_trajectory_section_renders(full_results):
    trajectory = {
        "version": 2,
        "entries": [
            {
                "label": "pr6",
                "gates": {
                    "distsweep": {
                        "reference_ms": 20.0,
                        "fast_ms": 0.8,
                        "speedup": 25.0,
                    }
                },
            }
        ],
    }
    report = build_report(
        MATRIX, full_results, trajectory=trajectory, trajectory_source="BENCH.json"
    )
    markdown = render_markdown(report)
    assert "| pr6 | 25× (20 → 0.8 ms) |" in markdown


# -- the performance ledger ----------------------------------------------------------


def _bench_rows(*speedups):
    """Artifact rows with a 1 ms fast side, so reference_ms == speedup."""
    return [
        {"reference_ms": speedup, "fast_ms": 1.0, "speedup": speedup}
        for speedup in speedups
    ]


def test_summarise_gate_requires_speedup_rows():
    with pytest.raises(ValueError, match="no rows"):
        summarise_gate({"rows": [{"other": 1}]})
    # A ratio without its two sides is what the ledger exists to refuse.
    with pytest.raises(ValueError, match="reference_ms"):
        summarise_gate({"rows": [{"speedup": 4.0}]})


def test_summarise_gate_skipped_rows_and_na_rendering():
    # A gate the host could not run (distsweep on one CPU) summarises to its
    # skip reason...
    summary = summarise_gate(
        {"rows": [{"workers": 2, "skipped": "host has 1 CPU(s)"}]}
    )
    assert summary == {"skipped": "host has 1 CPU(s)", "rows": 1}
    # ...and renders as n/a, distinct from the no-artifact dash.
    table = render_trend(
        {
            "version": 2,
            "entries": [
                {"label": "pr8", "gates": {"distsweep": summary}},
                {"label": "pr9", "gates": {}},
            ],
        }
    )
    assert "| pr8 | n/a |" in table
    assert "| pr9 | — |" in table
    # Measured rows still win over skipped ones when both are present (a
    # distsweep on a 2-CPU host: 4 and 8 workers skipped).
    mixed = summarise_gate(
        {"rows": [*_bench_rows(4.0), {"skipped": "one count would time-slice"}]}
    )
    assert mixed["speedup"] == 4.0 and mixed["rows"] == 1


def test_collect_upserts_and_reports_missing(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    out = tmp_path / "BENCH_trajectory.json"
    trajectory, missing = collect("pr5", results, out)
    assert missing == ["distsweep"]
    assert trajectory["entries"][0]["gates"] == {}
    (results / "distsweep.json").write_text(
        json.dumps({"rows": _bench_rows(12.0, 16.0)}), encoding="utf-8"
    )
    trajectory, missing = collect("pr6", results, out)
    assert missing == []
    # Both absolute sides sit next to the ratio, all three as medians.
    assert trajectory["entries"][1]["gates"]["distsweep"] == {
        "reference_ms": 14.0,
        "fast_ms": 1.0,
        "speedup": 14.0,
        "min_speedup": 12.0,
        "rows": 2,
    }
    # Re-collecting the same label replaces in place; a new label appends.
    (results / "distsweep.json").write_text(
        json.dumps({"rows": _bench_rows(20.0)}), encoding="utf-8"
    )
    trajectory, _ = collect("pr6", results, out)
    assert len(trajectory["entries"]) == 2
    assert trajectory["entries"][1]["gates"]["distsweep"]["speedup"] == 20.0
    trajectory, _ = collect("pr7", results, out)
    assert [entry["label"] for entry in trajectory["entries"]] == ["pr5", "pr6", "pr7"]
    # Byte-deterministic: same inputs, same file.
    before = out.read_bytes()
    collect("pr7", results, out)
    assert out.read_bytes() == before


def _perfbench_document(workload, seed, goodput, commit="unknown"):
    metrics = dict.fromkeys(END_TO_END_METRICS, 1.0) | {"goodput_MBps": goodput}
    return {
        "workload": workload,
        "seed": seed,
        "failed": 0,
        "manifest": {"commit": commit, "cpu_count": 2, "python": "3.11.7",
                     "numpy": "1.26.4", "kernel": "numpy", "platform": "Linux-test"},
        "metrics": {
            name: {"value": value, "unit": "x"} for name, value in metrics.items()
        },
    }


def test_collect_takes_perfbench_medians_per_workload(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    perfbench = tmp_path / "perfbench"
    perfbench.mkdir()
    for seed, goodput in ((1, 2.0), (2, 3.5), (3, 2.5)):
        (perfbench / f"slicing-churn-seed{seed}-trace0.json").write_text(
            json.dumps(_perfbench_document("slicing-churn", seed, goodput)),
            encoding="utf-8",
        )
    # Traced passes carry per-layer metrics only; the ledger does not read them.
    (perfbench / "slicing-churn-seed1-trace1.json").write_text("{}", encoding="utf-8")
    out = tmp_path / "BENCH_trajectory.json"
    trajectory, _ = collect("pr19", results, out, perfbench)
    recorded = trajectory["entries"][0]["perfbench"]
    assert recorded["manifest"]["cpu_count"] == 2
    assert recorded["manifest"]["commit"] == "unknown"
    assert recorded["workloads"] == {
        "slicing-churn": {
            "runs": 3,
            "failed": 0,
            "goodput_MBps": 2.5,
            "round_ms_p50": 1.0,
            "cpu_s_per_MB": 1.0,
            "peak_rss_MB": 1.0,
            "setup_s": 1.0,
        }
    }
    rendered = render_trend(trajectory)
    assert "| pr19 | slicing-churn | 3 | 2.5 | 1 | 1 | 1 | 1 |" in rendered
    assert "`pr19` host: 2 CPU(s), Python 3.11.7" in rendered
    # An empty or malformed perfbench directory is a usage error, not a crash.
    with pytest.raises(ValueError, match="no perfbench documents"):
        collect("pr19", results, out, results)
    (perfbench / "broken-seed1-trace0.json").write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed perfbench document"):
        collect("pr19", results, out, perfbench)


def test_collect_refuses_thin_or_mixed_runs_and_keeps_a_known_commit(tmp_path):
    perfbench = tmp_path / "perfbench"
    perfbench.mkdir()
    out = tmp_path / "BENCH_trajectory.json"

    def write(workload, seed, commit="unknown"):
        (perfbench / f"{workload}-seed{seed}-trace0.json").write_text(
            json.dumps(_perfbench_document(workload, seed, 2.0, commit)),
            encoding="utf-8",
        )

    for seed in (1, 2, 3):
        write("slicing-churn", seed)
    write("circuit-bulk", 1)
    write("circuit-bulk", 2, commit="83891fc")
    # Two seeds are two samples, not a median: one line, workload and count.
    with pytest.raises(ValueError, match=r"2 \*-trace0.json run\(s\) of 'circuit-bulk'"):
        collect("pr23", tmp_path, out, perfbench)
    # Runs of two commits are two entries, not one.
    write("circuit-bulk", 3, commit="c350960")
    with pytest.raises(ValueError, match="mixes runs of commits 83891fc, c350960"):
        collect("pr23", tmp_path, out, perfbench)
    assert not out.exists()
    write("circuit-bulk", 3)
    trajectory, _ = collect("pr23", tmp_path, out, perfbench)
    recorded = trajectory["entries"][0]["perfbench"]
    assert {name: w["runs"] for name, w in recorded["workloads"].items()} == {
        "circuit-bulk": 3,
        "slicing-churn": 3,
    }
    # The first document did not know its commit; a later one did.
    assert recorded["manifest"]["commit"] == "83891fc"


def test_load_trajectory_rejects_wrong_version(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"version": 1, "entries": []}), encoding="utf-8")
    with pytest.raises(ValueError, match="version"):
        load_trajectory(path)
    # The report refuses it the same way instead of rendering half a table.
    with pytest.raises(ValueError, match="version"):
        write_report(MATRIX, tmp_path, tmp_path / "r.json", trajectory_path=path)


def test_render_trend_empty_trajectory():
    table = render_trend({"version": 2, "entries": []})
    assert table.splitlines()[0].startswith("| label |")
    assert len(table.splitlines()) == 2
