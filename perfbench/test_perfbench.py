"""Checks of the benchmark itself; run with ``python -m pytest perfbench -q``.

Nothing here asserts a wall-clock number: the runs are one-round ``--check``
passes that only have to deliver every message.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]

#: Metrics the program counts rather than times: they repeat under one seed.
COUNT_SUFFIXES = (".calls", ".bytes", ".events", ".packets_received", ".messages_delivered",
                  ".regenerated_slices", ".packets_sent", ".bytes_sent", ".packets_dropped")


def run_benchmark(*arguments: str, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *arguments],
                          capture_output=True, text=True, timeout=170)


def result_of(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.splitlines()[-1])


def span_entries():
    return [(layer, module, owner, attribute)
            for layer, module, owner, attributes in spans.SPAN_TABLE for attribute in attributes]


def test_span_table_names_existing_callables():
    for layer, module, owner, attribute in span_entries():
        assert layer in spans.LAYERS
        _cls, raw = spans.resolve(module, owner, attribute)
        assert callable(getattr(raw, "__func__", raw)), (owner, attribute)
    names = {f"{layer}/{owner}.{attribute}" for layer, _m, owner, attribute in span_entries()}
    assert set(spans.SPAN_WORK) <= names


def test_uninstall_restores_the_originals():
    before = [spans.resolve(module, owner, attribute)[1]
              for _layer, module, owner, attribute in span_entries()]
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = [spans.resolve(module, owner, attribute)[1]
                  for _layer, module, owner, attribute in span_entries()]
    finally:
        tracer.uninstall()
    after = [spans.resolve(module, owner, attribute)[1]
             for _layer, module, owner, attribute in span_entries()]
    assert all(wrapped is not raw for wrapped, raw in zip(during, before))
    assert all(restored is raw for restored, raw in zip(after, before))


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [
        ("driver/round", 0.0, 10.0, -1, 1, 0),
        ("crypto.symmetric/StreamCipher.encrypt", 1.0, 5.0, 0, 1, 100),
        ("crypto.symmetric/StreamCipher.keystream", 2.0, 4.0, 1, 1, 100),
        ("crypto.symmetric/StreamCipher.keystream", 6.0, 7.0, 0, 1, 30),
    ]
    summary = tracer.summary({1: 0.5})
    assert summary["driver"]["self_s"] == pytest.approx(2.5)
    assert summary["crypto.symmetric"] == {"self_s": pytest.approx(2.5), "calls": 3, "work": 130}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_pass_delivers_everything(workload, tmp_path):
    result = result_of(run_benchmark("--workload", workload, "--seed", "3", "--trace", "0",
                                     "--check", "--out-dir", str(tmp_path)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 512
    assert list(result["metrics"]) == [metric["name"] for metric in BENCHMARK["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_counts_repeat_under_one_seed(tmp_path):
    # 32 flows with seeded graphs: two seeds never do the same amount of work.
    def traced(seed: int, out_dir: Path) -> dict:
        result = result_of(run_benchmark("--workload", "slicing-manyflows", "--seed", str(seed),
                                         "--trace", "1", "--check", "--out-dir", str(out_dir)))
        assert list(result["metrics"]) == [metric["name"] for metric in BENCHMARK["per_layer"]]
        assert result["metrics"]["driver.trace_overhead"]["value"] > 0
        lines = (out_dir / f"slicing-manyflows-seed{seed}-trace1.spans.jsonl").read_text().splitlines()
        assert {"driver/round", "driver/burst", "core.relay/Relay.handle_packets"} <= {
            json.loads(line)["name"] for line in lines
        }
        return {name: entry["value"] for name, entry in result["metrics"].items()
                if name.endswith(COUNT_SUFFIXES)}

    first, again, other = traced(5, tmp_path / "a"), traced(5, tmp_path / "b"), traced(6, tmp_path / "c")
    assert first["core.relay.calls"] > 0 and first["overlay.aio.calls"] == 0
    assert first == again
    assert first != other


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".*"))
    process = run_benchmark("--workload", "slicing-churn", "--seed", "1", "--check",
                            script=tmp_path / "perfbench" / "run.py")
    assert process.returncode != 0
    assert "{" not in process.stdout


def test_compare_marks_noisy_cells_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.10, stolen=False)[1] == "unchanged"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10, False)[1] == "regressed"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.10, False)[1] == "improved"
    noisy = [80.0, 120.0, 100.0, 90.0, 115.0]
    assert compare.verdict(steady, noisy, "lower", 0.10, stolen=False)[1] == "unresolved"
    assert compare.verdict(steady, steady, "lower", 0.10, stolen=True)[1] == "unresolved"
    # Every run of one side beats every run of the other: noise does not explain that.
    assert compare.verdict(noisy, [v * 2 for v in noisy], "lower", 0.10, False)[1] == "regressed"
