"""Scenario-report merge tests.

The report contract: missing or partial cells degrade to a status instead
of failing the merge, best-scheme picks follow each metric's direction with
ties broken in matrix scheme order, baseline deltas flag real changes only,
and both outputs (JSON and markdown) are byte-deterministic functions of
their inputs.
"""

import json

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.report import (
    build_report,
    render_markdown,
    write_report,
)
from repro.experiments.scenarios import expand_matrix, parse_matrix

MATRIX_SPEC = {
    "name": "rep",
    "axes": {"loss": [0.0, 0.5]},
    "schemes": ["slicing", "onion"],
    "base": {"messages": 8, "num_nodes": 60},
}
MATRIX = parse_matrix(MATRIX_SPEC)


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


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{not json", "is not JSON"),
        ("[]", "top level must be an object"),
        ('{"cells": [1]}', "'cells' must be a list of objects"),
        ('{"cells": [{"cell": "c", "schemes": []}]}', "'schemes' of cell 'c'"),
    ],
)
def test_malformed_baseline_is_a_one_line_error(
    full_results, tmp_path, capsys, text, reason
):
    # The baseline comes from outside the program: one `error:` line and exit
    # 2, like a bad matrix spec — never a traceback from deep in the deltas.
    spec = tmp_path / "rep.json"
    spec.write_text(json.dumps(MATRIX_SPEC), encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(text, encoding="utf-8")
    argv = ["report", "--matrix", str(spec), "--results", str(full_results)]
    code = experiments_main([*argv, "--md", "-", "--baseline", str(baseline)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: baseline ") and reason in err
    assert err.count("\n") == 1
