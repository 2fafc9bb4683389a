"""Runner determinism, artifact caching and CLI coverage.

The load-bearing guarantee: the same (experiment, scale, seed) produces
byte-identical JSON artifacts no matter how many workers execute the trials.
"""

import json

import pytest

from repro.experiments import (
    experiment_names,
    get_experiment,
    run_experiment,
)
from repro.experiments.__main__ import main as experiments_main

SMALL = 0.03


def test_registry_contains_figures_and_ablations():
    names = experiment_names()
    for n in range(7, 18):
        assert f"fig{n:02d}" in names
    assert "microbench" in names
    assert {"ablation_transforms", "ablation_as_selection", "ablation_network_coding"} <= set(names)


def test_get_experiment_unknown_name():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("fig99")


def test_worker_count_does_not_change_rows_or_artifact_bytes(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial = run_experiment("fig11", scale=SMALL, workers=1, out_dir=serial_dir)
    parallel = run_experiment("fig11", scale=SMALL, workers=3, out_dir=parallel_dir)
    assert serial.rows == parallel.rows
    assert not serial.cached and not parallel.cached
    assert (serial_dir / "fig11.json").read_bytes() == (
        parallel_dir / "fig11.json"
    ).read_bytes()


def test_artifact_cache_hit_and_force(tmp_path):
    first = run_experiment("fig16", scale=SMALL, out_dir=tmp_path)
    assert not first.cached
    second = run_experiment("fig16", scale=SMALL, out_dir=tmp_path)
    assert second.cached
    assert second.rows == first.rows
    assert second.trial_count == first.trial_count
    forced = run_experiment("fig16", scale=SMALL, out_dir=tmp_path, force=True)
    assert not forced.cached
    # A different scale or seed must miss the cache.
    rescaled = run_experiment("fig16", scale=SMALL * 2, out_dir=tmp_path)
    assert not rescaled.cached
    reseeded = run_experiment("fig16", scale=SMALL * 2, seed=1, out_dir=tmp_path)
    assert not reseeded.cached


def test_cache_invalidated_when_trial_list_changes(tmp_path):
    run_experiment("fig16", scale=SMALL, out_dir=tmp_path)
    artifact = tmp_path / "fig16.json"
    document = json.loads(artifact.read_text())
    # Simulate an edited experiment definition: the stored trial list no
    # longer matches what build_trials(scale) produces today.
    document["trials"][0]["d_prime"] = 99
    artifact.write_text(json.dumps(document))
    rerun = run_experiment("fig16", scale=SMALL, out_dir=tmp_path)
    assert not rerun.cached


@pytest.mark.parametrize(
    "content",
    [b"[]", b"null", b'"x"', b"\xff\xfe"],
    ids=["list", "null", "string", "not-utf8"],
)
def test_unreadable_artifact_is_a_cache_miss(tmp_path, content):
    artifact = tmp_path / "fig16.json"
    artifact.write_bytes(content)
    result = run_experiment("fig16", scale=SMALL, out_dir=tmp_path)
    assert result.cached is False
    assert json.loads(artifact.read_text(encoding="utf-8"))["rows"] == result.rows


def test_registered_experiment_runs_on_a_spawn_pool(tmp_path, monkeypatch):
    # Spawned workers start from a fresh interpreter: the trial function
    # travels by reference in the payload.  fig11's rows consume the trial
    # RNG, so a misrouted seed would show.
    import multiprocessing

    spawn = multiprocessing.get_context("spawn")
    one = run_experiment("fig11", scale=0.02, out_dir=tmp_path / "w1", workers=1)
    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: spawn)
    two = run_experiment("fig11", scale=0.02, out_dir=tmp_path / "w2", workers=2)
    assert one.artifact.read_bytes() == two.artifact.read_bytes()


def test_wall_clock_experiments_never_served_from_cache(tmp_path):
    first = run_experiment("microbench", scale=0.2, out_dir=tmp_path)
    assert not first.cached
    second = run_experiment("microbench", scale=0.2, out_dir=tmp_path)
    assert not second.cached  # wall_clock=True: timings always remeasured


def test_seed_changes_monte_carlo_results():
    # fig11's trials draw their flows from the seed; the exact figures ignore it.
    default = run_experiment("fig11", scale=SMALL)
    reseeded = run_experiment("fig11", scale=SMALL, seed=99)
    assert default.rows != reseeded.rows
    # but the same seed reproduces exactly
    again = run_experiment("fig11", scale=SMALL, seed=99)
    assert reseeded.rows == again.rows


def test_artifact_document_shape(tmp_path):
    result = run_experiment("fig16", scale=SMALL, out_dir=tmp_path)
    document = json.loads((tmp_path / "fig16.json").read_text())
    assert document["experiment"] == "fig16"
    assert document["scale"] == SMALL
    assert document["seed"] == result.seed
    assert document["rows"] == result.rows
    assert len(document["trials"]) == result.trial_count


def test_rows_are_plain_json_types():
    rows = run_experiment("fig16", scale=SMALL).rows
    json.dumps(rows)  # would raise on numpy scalars
    assert all(isinstance(row, dict) for row in rows)


def test_invalid_arguments_rejected(tmp_path, capsys):
    bad = tmp_path / "bad"
    for scale in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale"):
            run_experiment("fig16", scale=scale, out_dir=bad)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        run_experiment("fig16", scale=SMALL, seed=-1, out_dir=bad)
    with pytest.raises(ValueError, match="workers"):
        run_experiment("fig16", scale=SMALL, workers=0)
    # The CLI turns the same checks into exit-2 one-liners, never an argparse
    # usage dump or a traceback.
    for flags, message in (
        (["--seed", "-1"], "seed must be "),
        (["--scale", "nan"], "scale must be "),
        (["--scale", "inf"], "scale must be "),
        (["--workers", "0"], "--workers must be >= 1, got 0"),
        (["--workers", "-3"], "--workers must be >= 1, got -3"),
    ):
        assert experiments_main(["run", "fig16", *flags, "--out", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
    assert not bad.exists()  # nothing was written


@pytest.mark.parametrize(
    ("variable", "value", "name", "message"),
    [
        ("REPRO_AIO_HOST", "no-such-host.invalid", "fig14", "cannot resolve host"),
    ],
    ids=["host"],
)
def test_cli_run_rejects_a_bad_aio_environment(
    tmp_path, capsys, monkeypatch, variable, value, name, message
):
    # The aio backend's deployment knobs are checked with the rest of the
    # run request: one stderr line, exit 2, before any trial runs.
    monkeypatch.setenv(variable, value)
    out = tmp_path / "out"
    argv = ["run", name, "--backend", "aio", "--scale", "0.02", "--out", str(out)]
    assert experiments_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {variable}: {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_cli_run_subcommand(tmp_path, capsys):
    out = tmp_path / "results"
    code = experiments_main(
        ["run", "fig16", "--scale", str(SMALL), "--out", str(out), "--workers", "2"]
    )
    assert code == 0
    assert (out / "fig16.json").exists()
    output = capsys.readouterr().out
    assert "fig16" in output
    assert "information_slicing_success" in output
    # Second invocation hits the artifact cache.
    assert experiments_main(["run", "fig16", "--scale", str(SMALL), "--out", str(out)]) == 0
    assert "cached" in capsys.readouterr().out


def test_cli_run_without_names_fails(capsys):
    assert experiments_main(["run"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no experiment names given\n"


@pytest.mark.parametrize(
    "argv",
    [["run", "--matrix", "spec.json"], ["report", "--matrix", "spec.json"]],
    ids=["matrix", "report"],
)
def test_cli_retired_matrix_and_report_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exit_info:
        experiments_main(argv)
    assert exit_info.value.code == 2


def test_cli_run_unknown_experiment(capsys):
    # A bad name must exit with a one-line error listing the valid names on
    # stderr — never a raw KeyError traceback.
    assert experiments_main(["run", "fig99"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown experiment")
    assert "fig11" in captured.err and "fig99" in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cli_run_retired_gate_is_an_unknown_experiment(capsys):
    # dataplane-bench timed the batched plane against a reference no run
    # uses; it is gone from the registry, not hidden behind a flag.
    assert experiments_main(["run", "dataplane-bench"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown experiment 'dataplane-bench'")
    assert captured.err.count("\n") == 1


def test_cli_run_unsupported_backend(capsys):
    # fig16 is analytic: it only runs on the simulator backend.
    assert experiments_main(["run", "fig16", "--backend", "aio"]) == 2
    captured = capsys.readouterr()
    assert "not support backend" in captured.err and "fig16" in captured.err
    assert "Traceback" not in captured.err


def test_cli_list(capsys):
    assert experiments_main(["list"]) == 0
    output = capsys.readouterr().out
    assert "fig09" in output and "ablation_transforms" in output


def test_cli_run_scheme_on_schemeless_experiment(capsys):
    # fig16 has no per-scheme mode; --scheme must be a one-line usage error.
    assert experiments_main(["run", "fig16", "--scheme", "sphinx"]) == 2
    captured = capsys.readouterr()
    assert "does not support per-scheme runs" in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cli_run_unknown_scheme_lists_supported(capsys):
    assert experiments_main(["run", "fig11", "--scheme", "carrier-pigeon"]) == 2
    captured = capsys.readouterr()
    assert "supported: slicing, onion, onion-erasure, sphinx" in captured.err
    assert captured.err.count("\n") == 1


def test_scheme_restriction_keys_the_artifact_cache(tmp_path):
    # The scheme rides in the trial list, so it keys the artifact cache: a
    # default run must never be served from a scheme-restricted artifact
    # (and vice versa), even though both share the artifact filename.
    default = run_experiment("fig14", scale=SMALL, out_dir=tmp_path)
    restricted = run_experiment("fig14", scale=SMALL, out_dir=tmp_path, scheme="onion")
    assert default.scheme is None
    assert restricted.scheme == "onion"
    assert not restricted.cached
    assert {row["scheme"] for row in restricted.rows} == {"onion"}
    rerun = run_experiment("fig14", scale=SMALL, out_dir=tmp_path)
    assert not rerun.cached
    assert rerun.rows == default.rows
