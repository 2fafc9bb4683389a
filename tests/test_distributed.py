"""End-to-end coordinator/worker tests for distributed experiment sharding.

The load-bearing guarantee mirrors the runner's: a distributed run of a
deterministic experiment merges to an artifact *byte-identical* to the
single-process ``run_experiment`` of the same (name, scale, seed) — no
matter how many workers ran, whether one died mid-run, or whether results
arrived twice.  Workers here run as in-process threads speaking real TCP to
the asyncio coordinator; the ``run --dist`` CLI test spawns genuine worker
subprocesses.
"""

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.experiments import Job, run_distributed, run_experiment, run_worker
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.distributed import (
    PROTOCOL_VERSION,
    Coordinator,
    _connect_with_retry,
    decode_message,
    job_frame,
    job_from_frame,
    message_payload,
)
from repro.experiments.runner import _jsonify, execute_trial
from repro.net import SyncChannel

SMALL = 0.03
#: fig11 at the CI smoke scale: one short transfer per path length.
FIG11_SMOKE = 0.02


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class _FakeWorkerWire:
    """One side of the protocol, spoken by hand over one socket."""

    def __init__(self, sock: socket.socket) -> None:
        self.channel = SyncChannel(sock)

    def send(self, message: dict) -> None:
        self.channel.send_frame(message_payload(message))

    def recv(self) -> dict | None:
        payload = self.channel.recv_frame()
        return None if payload is None else decode_message(payload)


def _fake_coordinator(script) -> tuple[int, threading.Thread]:
    """Listen, accept one worker and speak ``script(wire)`` to it by hand."""
    server = socket.create_server(("127.0.0.1", 0))

    def serve():
        with server:
            sock, _ = server.accept()
            with sock:
                sock.settimeout(30)
                wire = _FakeWorkerWire(sock)
                assert wire.recv()["type"] == "hello"
                script(wire)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return server.getsockname()[1], thread


def _start_workers(port: int, count: int, **kwargs) -> list[threading.Thread]:
    threads = [
        threading.Thread(
            target=run_worker,
            kwargs={"host": "127.0.0.1", "port": port, "label": f"t{rank}", **kwargs},
            daemon=True,
        )
        for rank in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


def _join_all(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()


def test_distributed_run_matches_single_process_bytes(tmp_path):
    single_dir = tmp_path / "single"
    dist_dir = tmp_path / "dist"
    single = run_experiment("fig16", scale=SMALL, out_dir=single_dir)
    port = _free_port()
    threads = _start_workers(port, 2)
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=dist_dir,
        port=port,
        min_workers=2,
        timeout=120,
    )
    _join_all(threads)
    assert result.rows == single.rows
    assert result.trial_count == single.trial_count
    assert not result.cached
    assert result.workers_seen == 2
    assert (dist_dir / "fig16.json").read_bytes() == (
        single_dir / "fig16.json"
    ).read_bytes()


def test_distributed_run_survives_worker_death(tmp_path):
    """A worker dying while holding a lease must not lose or corrupt trials."""
    single = run_experiment("fig16", scale=SMALL, out_dir=tmp_path / "single")
    port = _free_port()
    # The crashing worker completes one lease, then dies on receiving the
    # next; the healthy worker picks up the re-dispatched trials.
    crasher = _start_workers(port, 1, crash_after_leases=1)
    steady = _start_workers(port, 1)
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=tmp_path / "dist",
        port=port,
        min_workers=2,
        timeout=120,
    )
    _join_all(crasher + steady)
    assert result.redispatched >= 1
    assert (tmp_path / "dist" / "fig16.json").read_bytes() == (
        tmp_path / "single" / "fig16.json"
    ).read_bytes()
    assert result.rows == single.rows


def test_distributed_run_redispatches_expired_leases(tmp_path):
    """A worker that claims a lease and stalls forfeits it on expiry."""
    single = run_experiment("fig16", scale=SMALL, out_dir=tmp_path / "single")
    port = _free_port()

    stalled = threading.Event()

    def stalling_worker():
        # Speaks just enough protocol to claim one lease, then goes silent;
        # the coordinator must expire the lease and re-dispatch its trials.
        with _connect_with_retry("127.0.0.1", port, connect_timeout=30) as sock:
            wire = _FakeWorkerWire(sock)
            wire.send({"type": "hello", "protocol": PROTOCOL_VERSION, "worker": "stall"})
            job = wire.recv()
            assert job["type"] == "job"
            wire.send({"type": "request"})
            lease = wire.recv()
            assert lease["type"] == "lease"
            stalled.set()
            # Hold the connection (and the lease) until the run is over.
            sock.settimeout(60)
            try:
                wire.recv()  # unblocks on coordinator teardown EOF
            except Exception:
                pass

    staller = threading.Thread(target=stalling_worker, daemon=True)
    staller.start()
    # The healthy worker joins immediately (min_workers=2 holds all leases
    # until both are connected); the staller keeps whichever lease it gets.
    healthy = _start_workers(port, 1)[0]
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=tmp_path / "dist",
        port=port,
        min_workers=2,
        lease_seconds=0.5,
        timeout=120,
    )
    _join_all([staller, healthy])
    assert stalled.is_set()
    assert result.redispatched >= 1
    assert (tmp_path / "dist" / "fig16.json").read_bytes() == (
        tmp_path / "single" / "fig16.json"
    ).read_bytes()
    assert result.rows == single.rows


def test_duplicate_results_on_the_wire_are_idempotent(tmp_path):
    """A worker re-sending every result frame must not corrupt the merge."""
    single = run_experiment("fig16", scale=SMALL, out_dir=tmp_path / "single")
    port = _free_port()

    def duplicating_worker():
        try:
            _duplicating_worker_loop()
        except (ConnectionError, OSError):
            # Teardown race: the coordinator may close while a request is in
            # flight — equivalent to the EOF path, nothing left to do.
            pass

    def _duplicating_worker_loop():
        with _connect_with_retry("127.0.0.1", port, connect_timeout=30) as sock:
            sock.settimeout(60)
            wire = _FakeWorkerWire(sock)
            wire.send({"type": "hello", "protocol": PROTOCOL_VERSION, "worker": "dup"})
            job = wire.recv()
            assert job["type"] == "job"
            payloads = job_from_frame(job).payloads()
            wire.send({"type": "request"})
            while True:
                message = wire.recv()
                if message is None or message["type"] == "done":
                    return
                if message["type"] == "wait":
                    time.sleep(0.05)
                    wire.send({"type": "request"})
                    continue
                results = []
                for index in message["indices"]:
                    _, row = execute_trial(payloads[index])
                    results.append([index, _jsonify(row)])
                report = {
                    "type": "result",
                    "lease_id": message["lease_id"],
                    "results": results,
                }
                # Send every result twice: the second copy references a
                # retired lease and already-recorded indices and must change
                # nothing.  Each copy draws one reply (lease/wait/done),
                # which the loop above consumes in order.
                wire.send(report)
                wire.send(report)

    worker = threading.Thread(target=duplicating_worker, daemon=True)
    worker.start()
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=tmp_path / "dist",
        port=port,
        min_workers=1,
        timeout=120,
    )
    _join_all([worker])
    assert result.rows == single.rows
    assert (tmp_path / "dist" / "fig16.json").read_bytes() == (
        tmp_path / "single" / "fig16.json"
    ).read_bytes()


# Frames from the other side are outside input: a missing or mistyped field is
# a PacketFormatError one-liner on the receiving side, never a traceback.


def test_malformed_job_frame_is_a_worker_one_liner(capsys):
    good = job_frame(Job("fig16", SMALL))
    without_scale = {key: value for key, value in good.items() if key != "scale"}
    for frame, field in (
        (without_scale, "scale"),
        ({**good, "scale": "0.03"}, "scale"),
        ({**good, "seed": True}, "seed"),
        ({**good, "experiment": 16}, "experiment"),
        ({**good, "backend": None}, "backend"),
        ({**good, "trial_count": "18"}, "trial_count"),
        ({**good, "trials_digest": None}, "trials_digest"),
    ):
        port, coordinator = _fake_coordinator(lambda wire, frame=frame: wire.send(frame))
        assert run_worker(port=port) == 1
        _join_all([coordinator])
        err = capsys.readouterr().err
        assert err.startswith(f"worker error: malformed job frame: {field!r} is ")
        assert err.count("\n") == 1


def test_malformed_lease_frame_is_a_worker_one_liner(capsys):
    for lease in (
        {"type": "lease", "lease_id": "abc", "indices": [0]},
        {"type": "lease", "indices": [0]},
        {"type": "lease", "lease_id": 1},
        {"type": "lease", "lease_id": 1, "indices": "0"},
        {"type": "lease", "lease_id": 1, "indices": ["0"]},
        {"type": "lease", "lease_id": 1, "indices": [18]},  # fig16 has 18 trials
        {"type": "lease", "lease_id": 1, "indices": [-1]},
    ):

        def script(wire, lease=lease):
            wire.send(job_frame(Job("fig16", SMALL)))
            assert wire.recv()["type"] == "request"
            wire.send(lease)

        port, coordinator = _fake_coordinator(script)
        assert run_worker(port=port) == 1
        _join_all([coordinator])
        err = capsys.readouterr().err
        assert err.startswith("worker error: malformed lease frame: ")
        assert err.count("\n") == 1


def test_malformed_result_frame_drops_the_worker_and_redispatches(tmp_path, caplog):
    single = run_experiment("fig16", scale=SMALL, out_dir=tmp_path / "single")
    port = _free_port()
    bad_results = (
        {"type": "result", "lease_id": "abc", "results": []},
        {"type": "result", "results": []},
        {"type": "result", "lease_id": 1},
        # true is not a trial index, even though bool is an int in Python.
        {"type": "result", "lease_id": 1, "results": [[True, {}]]},
    )

    def bad_worker(bad_result):
        with _connect_with_retry("127.0.0.1", port, connect_timeout=30) as sock:
            sock.settimeout(60)
            wire = _FakeWorkerWire(sock)
            wire.send({"type": "hello", "protocol": PROTOCOL_VERSION, "worker": "bad"})
            assert wire.recv()["type"] == "job"
            wire.send({"type": "request"})
            assert wire.recv()["type"] == "lease"
            wire.send(bad_result)
            try:
                assert wire.recv() is None  # dropped, not answered
            except ConnectionError:
                pass

    # min_workers=5 holds every lease until all five are connected, so each
    # bad peer is sure to hold one when it sends its malformed result.
    bad = [
        threading.Thread(target=bad_worker, args=(bad_result,), daemon=True)
        for bad_result in bad_results
    ]
    for thread in bad:
        thread.start()
    healthy = _start_workers(port, 1)
    log: list[str] = []
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=tmp_path / "dist",
        port=port,
        min_workers=5,
        timeout=120,
        log=log.append,
    )
    _join_all(bad + healthy)
    dropped = [line for line in log if "dropped: malformed result frame: " in line]
    assert len(dropped) == len(bad_results)
    assert "Unhandled exception" not in caplog.text
    assert result.redispatched >= len(bad_results)
    assert (tmp_path / "dist" / "fig16.json").read_bytes() == (
        tmp_path / "single" / "fig16.json"
    ).read_bytes()
    assert result.rows == single.rows


def test_distributed_run_serves_matching_artifact_from_cache(tmp_path):
    port = _free_port()
    threads = _start_workers(port, 1)
    first = run_distributed(
        "fig16", scale=SMALL, out_dir=tmp_path, port=port, timeout=120
    )
    _join_all(threads)
    assert not first.cached
    # Second run needs no workers at all: the artifact matches.
    second = run_distributed("fig16", scale=SMALL, out_dir=tmp_path, timeout=120)
    assert second.cached
    assert second.rows == first.rows


def test_run_distributed_validates_arguments():
    for scale in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale"):
            run_distributed("fig16", scale=scale)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        run_distributed("fig16", scale=SMALL, seed=-1)
    with pytest.raises(ValueError, match="shardable"):
        run_distributed("microbench", scale=SMALL)
    with pytest.raises(ValueError, match="backend"):
        run_distributed("fig16", scale=SMALL, backend="aio")
    with pytest.raises(KeyError, match="unknown experiment"):
        run_distributed("fig99")


@pytest.mark.parametrize(
    "name, scale", [("fig16", SMALL), ("fig11", FIG11_SMOKE)], ids=["fig16", "fig11"]
)
def test_cli_run_dist_spawns_local_workers(tmp_path, capsys, name, scale):
    # The exact fig16, and fig11, whose trials drive real overlay transfers.
    single_dir = tmp_path / "single"
    dist_dir = tmp_path / "dist"
    assert (
        experiments_main(["run", name, "--scale", str(scale), "--out", str(single_dir)])
        == 0
    )
    code = experiments_main(
        [
            "run",
            name,
            "--scale",
            str(scale),
            "--out",
            str(dist_dir),
            "--dist",
            "2",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "dist-workers=2" in output
    assert (dist_dir / f"{name}.json").read_bytes() == (
        single_dir / f"{name}.json"
    ).read_bytes()


def test_spawned_workers_import_the_coordinators_source_tree(tmp_path):
    # A coordinator that found `repro` through sys.path alone, with no
    # PYTHONPATH to pass on: its spawned worker must still import the same
    # tree, finish the run and merge byte-identically.
    package_root = Path(repro.__file__).resolve().parents[1]
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from repro.experiments import run_distributed; "
        "run_distributed('fig16', scale=0.05, workers=1, out_dir=sys.argv[2], timeout=120)"
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, "-c", script, str(package_root), str(tmp_path / "dist")],
        env=env,
        cwd=tmp_path,
        check=True,
        timeout=120,
    )
    run_experiment("fig16", scale=0.05, out_dir=tmp_path / "single")
    assert (tmp_path / "dist" / "fig16.json").read_bytes() == (
        tmp_path / "single" / "fig16.json"
    ).read_bytes()


def test_run_dist_fails_fast_when_every_spawned_worker_exits(
    tmp_path, capsys, monkeypatch
):
    def exit_at_once(self, rank):
        return subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])

    monkeypatch.setattr(Coordinator, "_spawn_local_worker", exit_at_once)
    started = time.monotonic()
    code = experiments_main(
        ["run", "fig16", "--scale", str(SMALL), "--out", str(tmp_path), "--dist", "2"]
    )
    assert time.monotonic() - started < 30
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: all 2 spawned worker(s) of 'fig16' exited ")
    assert "(exit codes 3, 3)" in err and "0/18 trials complete" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "fig16.json").exists()


def test_cli_worker_count_validation(capsys):
    # A bad worker count must exit with a one-line stderr error, exactly
    # like the unknown-name and unsupported-backend cases — never an
    # argparse usage dump or a traceback.
    for argv in (
        ["run", "fig16", "--workers", "0"],
        ["run", "fig16", "--workers", "-3"],
        ["run", "fig16", "--dist", "0"],
        ["run", "fig16", "--dist", "-1"],
        # ... and so must a bad run request on the distributed paths.
        ["run", "fig16", "--dist", "2", "--seed", "-1"],
        ["run", "fig16", "--dist", "2", "--scale", "nan"],
        ["run", "fig16", "--dist", "2", "--scale", "inf"],
        ["coordinate", "fig16", "--seed", "-1"],
        ["coordinate", "fig16", "--scale", "nan"],
        ["coordinate", "fig16", "--scale", "inf"],
    ):
        assert experiments_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and "usage:" not in captured.err


def test_cli_rejects_conflicting_workers_and_dist(capsys):
    assert experiments_main(["run", "fig16", "--dist", "2", "--workers", "4"]) == 2
    captured = capsys.readouterr()
    assert "one or the other" in captured.err
    assert captured.err.count("\n") == 1


def test_cli_rejects_unshardable_dist(capsys):
    assert experiments_main(["run", "microbench", "--dist", "2"]) == 2
    captured = capsys.readouterr()
    assert "not shardable" in captured.err
    assert captured.err.count("\n") == 1


def test_cli_coordinate_validation(capsys):
    assert experiments_main(["coordinate", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err
    assert experiments_main(["coordinate", "microbench"]) == 2
    assert "not shardable" in capsys.readouterr().err
    assert experiments_main(["coordinate", "fig16", "--chunk", "0"]) == 2
    assert "--chunk" in capsys.readouterr().err
    assert experiments_main(["coordinate", "fig16", "--lease-seconds", "0"]) == 2
    assert "--lease-seconds" in capsys.readouterr().err
    assert experiments_main(["coordinate", "fig16", "--min-workers", "0"]) == 2
    assert "--min-workers" in capsys.readouterr().err
