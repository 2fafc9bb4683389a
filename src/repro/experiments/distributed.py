"""Distributed experiment sharding: a coordinator/worker subsystem over TCP.

One registered :class:`~repro.experiments.registry.Experiment` is sharded
across worker *processes* (same host or not) that speak length-prefixed JSON
frames over TCP — the frames, sessions and channels of :mod:`repro.net`, the
same wire layer the asyncio overlay backend (:mod:`repro.overlay.aio`) uses.

Roles
-----
* The **coordinator** (:func:`run_distributed`, CLI ``repro-experiments
  coordinate``) owns the trial list.  It chunks trial *indices* into leases
  with an expiry deadline, hands a lease to whichever worker asks, collects
  completed rows, re-enqueues the outstanding indices of a lease when its
  worker dies or the lease times out, and — once every index has a result —
  hands them to the runner's one pipeline
  (:func:`~repro.experiments.runner.run_job`) to reduce and write.
* A **worker** (:func:`run_worker`, CLI ``repro-experiments worker``)
  connects, parses the job frame back into the coordinator's
  :class:`~repro.experiments.runner.Job` (:func:`job_from_frame` — the
  coordinator's own validation, re-run on this host), *rebuilds the trial
  list and per-trial seed sequences locally* from it, and then loops:
  request a lease, execute its trials through the shared
  :func:`~repro.experiments.runner.execute_trial` core, send the rows back.

Because workers execute the *identical* payloads the local multiprocessing
pool would (same trial dicts, same ``SeedSequence.spawn`` children, same
``run_trial``), a distributed run of a deterministic experiment produces a
merged ``results/<name>.json`` byte-identical to a single-process
``run_experiment`` of the same ``(name, scale, seed)`` — regardless of how
many workers ran, in what order leases completed, or whether leases were
re-dispatched after a worker death.  CI's ``dist-parity`` job ``cmp``-gates
exactly that.

Wire protocol (version 1)
-------------------------
Every frame is a 4-byte big-endian length followed by a canonical-JSON
object (sorted keys, compact separators) with a ``"type"`` field:

==============  =========  ====================================================
type            direction  payload
==============  =========  ====================================================
``hello``       w -> c     ``protocol``, ``worker`` (display label)
``job``         c -> w     ``protocol``, ``experiment``, ``scale``, ``seed``,
                           ``backend``, ``scheme``, ``trial_count``,
                           ``trials_digest``
``request``     w -> c     ask for work
``lease``       c -> w     ``lease_id``, ``indices`` (trial indices to run)
``result``      w -> c     ``lease_id``, ``results``: ``[[index, row], ...]``
``wait``        c -> w     ``seconds`` — nothing leasable right now, re-ask
``done``        c -> w     every trial has a result; disconnect
``error``       c -> w     ``message`` — protocol/job mismatch, disconnect
==============  =========  ====================================================

After ``hello``/``job``, the conversation is strict request–response: the
worker sends ``request`` or ``result`` and the coordinator answers each with
exactly one of ``lease`` / ``wait`` / ``done``.  Truncated and oversized
frames are rejected exactly as on the overlay wire (property-tested in
``tests/test_dist_protocol.py``); results are recorded *per trial index* and
only the first result for an index counts, which makes duplicate and stale
(post-re-dispatch) deliveries idempotent.  Frames from the other side are
outside input: a missing or mistyped field is a
:class:`~repro.core.errors.PacketFormatError` on the receiving side, never a
traceback.

Until PR 20 the ``job`` frame also carried a ``"kernel"`` key (the GF(2^8)
implementation the coordinator's user asked for).  It went without a version
bump because both mixed pairings still work: an older worker reads the
missing key as ``null`` — its own default — and this worker ignores the extra
key of an older coordinator; the implementations being bit-identical, the
rows are the same either way.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..core.errors import HandshakeError, PacketFormatError, SecureTransportError
from ..net import (
    AioChannel,
    SyncChannel,
    TransportCredential,
    encode_frame,
    handshake,
    write_keypair,
)
from .runner import Job, RunResult, UsageError, _jsonify, execute_trial, run_job

#: Version tag carried by ``hello`` and ``job``; mismatch is a hard error.
PROTOCOL_VERSION = 1

#: Default lease lifetime (seconds): a worker holding a lease longer than
#: this without delivering results is presumed dead and its indices are
#: re-enqueued.
DEFAULT_LEASE_SECONDS = 120.0

#: Default number of trial indices per lease.
DEFAULT_CHUNK_SIZE = 1

#: Seconds a worker sleeps when told to ``wait`` (no leasable work yet).
DEFAULT_POLL_SECONDS = 0.2

#: Wire transports both sides understand.  ``plain`` is the original
#: length-prefixed framing; ``secure`` mounts the same frames on the
#: authenticated :mod:`repro.net` channel (handshake first, then one AEAD
#: message per frame).  The JSON payloads — and therefore the merged
#: artifacts — are identical either way.
TRANSPORTS = ("plain", "secure")

#: Directory holding the ``repro`` package this process imported; spawned
#: local workers get it at the front of ``PYTHONPATH`` so they run the same
#: source tree, whether or not the package is installed.
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[2])

#: Seconds between checks that a spawn-local run still has a live worker.
_SPAWN_POLL_SECONDS = 0.1


class WorkersExitedError(RuntimeError):
    """Every spawned local worker exited while trials were still unfinished."""


# -- message layer ------------------------------------------------------------------


def encode_message(message: dict) -> bytes:
    """Frame one protocol message as compact JSON.

    Key order is *preserved*, not sorted: result rows travel inside these
    frames and the artifact serialisation keeps row insertion order, so the
    envelope must not re-order what it carries.  Raises
    :class:`~repro.core.errors.PacketFormatError` for non-dict messages,
    messages without a ``"type"``, or encodings that exceed
    :data:`~repro.net.MAX_FRAME_BYTES` — the same limit as the overlay wire.
    """
    return encode_frame(message_payload(message))


def message_payload(message: dict) -> bytes:
    """Serialise one protocol message to its unframed JSON payload bytes.

    The channel's session (:mod:`repro.net`) seals this payload into a plain
    or encrypted frame; :func:`encode_message` is the plain-wire composition
    kept for the protocol tests.
    """
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise PacketFormatError("protocol messages are dicts with a string 'type'")
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def decode_message(payload: bytes) -> dict:
    """Parse one frame payload back into a protocol message dict."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise PacketFormatError("frame payload is not valid JSON") from None
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise PacketFormatError("protocol messages are dicts with a string 'type'")
    return message


def trials_digest(trials: list[dict]) -> str:
    """Order-sensitive digest of a trial list.

    Carried in the ``job`` frame so a worker whose locally rebuilt trial
    list differs from the coordinator's (code-version skew) aborts instead
    of silently computing different trials.
    """
    canonical = json.dumps(trials, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _frame_field(message: dict, key: str, *kinds: type):
    """``message[key]``, which must be an instance of one of ``kinds``.

    Frames come from another host, so a missing field (``None``) or one of
    the wrong JSON type is a :class:`~repro.core.errors.PacketFormatError`;
    ``true``/``false`` never pass for a number.
    """
    value = message.get(key)
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
        raise PacketFormatError(
            f"malformed {message['type']} frame: {key!r} is {value!r}, expected {expected}"
        )
    return value


def job_frame(job: Job) -> dict:
    """The ``job`` frame announcing ``job`` to a worker."""
    return {
        "type": "job",
        "protocol": PROTOCOL_VERSION,
        "experiment": job.name,
        "scale": job.scale,
        "seed": job.seed,
        "backend": job.backend,
        "scheme": job.scheme,
        "trial_count": len(job.trials),
        "trials_digest": trials_digest(job.trials),
    }


def job_from_frame(frame: dict) -> Job:
    """Parse a ``job`` frame back into the coordinator's :class:`Job`.

    Building the ``Job`` re-runs the coordinator's own validation on this
    host (unknown experiment, unsupported backend, ...); a trial
    list that then differs from the coordinator's in count or digest means
    the two sides run different code, and is a
    :class:`~repro.experiments.runner.UsageError` as well.
    """
    none = type(None)
    count = _frame_field(frame, "trial_count", int)
    digest = _frame_field(frame, "trials_digest", str)
    job = Job(
        name=_frame_field(frame, "experiment", str),
        scale=_frame_field(frame, "scale", int, float),
        seed=_frame_field(frame, "seed", int),
        backend=_frame_field(frame, "backend", str),
        scheme=_frame_field(frame, "scheme", str, none),
    )
    if (len(job.trials), trials_digest(job.trials)) != (count, digest):
        raise UsageError(
            f"local trial list for {job.name!r} does not match the "
            "coordinator's (code version skew?)"
        )
    return job


# -- lease bookkeeping --------------------------------------------------------------


@dataclass(frozen=True)
class Lease:
    """One outstanding grant of trial indices to one worker connection."""

    lease_id: int
    indices: tuple[int, ...]
    worker: str
    expires_at: float


class TrialLedger:
    """Pure lease/result bookkeeping for one experiment's trial indices.

    The coordinator drives this from its socket handlers; keeping it free of
    any I/O makes the lease lifecycle property-testable
    (``tests/test_dist_protocol.py``).  Invariants:

    * every index is recorded at most once — :meth:`complete` is idempotent,
      so duplicate results (a worker retrying, or a stale result arriving
      after its lease was re-dispatched) change nothing;
    * an index is never lost — expiring or releasing a lease re-enqueues
      exactly its not-yet-completed indices;
    * :meth:`results_in_order` returns results in trial order, independent
      of completion order.
    """

    def __init__(
        self,
        total: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> None:
        if total < 0:
            raise ValueError(f"trial count must be >= 0, got {total}")
        if chunk_size < 1:
            raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
        if lease_seconds <= 0:
            raise ValueError(f"lease seconds must be positive, got {lease_seconds}")
        self.total = total
        self.chunk_size = chunk_size
        self.lease_seconds = lease_seconds
        self._pending: deque[tuple[int, ...]] = deque(
            tuple(range(start, min(start + chunk_size, total)))
            for start in range(0, total, chunk_size)
        )
        self._leases: dict[int, Lease] = {}
        self._results: dict[int, dict] = {}
        self._lease_ids = itertools.count(1)

    @property
    def done(self) -> bool:
        """True once every trial index has a recorded result."""
        return len(self._results) >= self.total

    @property
    def completed(self) -> int:
        return len(self._results)

    def outstanding(self) -> list[Lease]:
        """Currently granted leases (for observability and tests)."""
        return list(self._leases.values())

    def lease(self, worker: str, now: float) -> Lease | None:
        """Grant the next chunk of uncompleted indices, or None if none pend."""
        while self._pending:
            indices = tuple(
                index for index in self._pending.popleft() if index not in self._results
            )
            if not indices:
                continue
            lease = Lease(
                lease_id=next(self._lease_ids),
                indices=indices,
                worker=worker,
                expires_at=now + self.lease_seconds,
            )
            self._leases[lease.lease_id] = lease
            return lease
        return None

    def complete(self, lease_id: int, results: dict[int, dict]) -> int:
        """Record per-index results; returns how many were newly recorded.

        The lease (if still outstanding) is retired, and any of its indices
        the frame did *not* cover go back in the pending queue — an index
        can never be stranded, even by a partial or malformed frame
        (validation happens before any state changes, so a rejected frame
        leaves the lease outstanding for expiry/death re-dispatch).
        Unknown or stale lease ids are fine — the per-index results are
        still valid work — and an index that already has a result keeps its
        first one, which is what makes duplicate deliveries idempotent.
        """
        for index in results:
            if not 0 <= index < self.total:
                raise PacketFormatError(
                    f"result index {index} outside the trial range 0..{self.total - 1}"
                )
        lease = self._leases.pop(lease_id, None)
        newly = 0
        for index, result in results.items():
            if index not in self._results:
                self._results[index] = result
                newly += 1
        if lease is not None:
            uncovered = tuple(
                index for index in lease.indices if index not in self._results
            )
            if uncovered:
                self._pending.append(uncovered)
        return newly

    def expire(self, now: float) -> list[Lease]:
        """Re-enqueue every overdue lease; returns the ones re-dispatched."""
        overdue = [lease for lease in self._leases.values() if lease.expires_at <= now]
        return [lease for lease in overdue if self._requeue(lease)]

    def release_worker(self, worker: str) -> list[Lease]:
        """Re-enqueue a dead worker's leases; returns the ones re-dispatched."""
        held = [lease for lease in self._leases.values() if lease.worker == worker]
        return [lease for lease in held if self._requeue(lease)]

    def _requeue(self, lease: Lease) -> bool:
        del self._leases[lease.lease_id]
        indices = tuple(
            index for index in lease.indices if index not in self._results
        )
        if not indices:
            return False
        self._pending.append(indices)
        return True

    def results_in_order(self) -> list[dict]:
        """All results in trial-index order; only valid once :attr:`done`."""
        if not self.done:
            missing = self.total - len(self._results)
            raise RuntimeError(f"ledger incomplete: {missing} trial(s) unfinished")
        return [self._results[index] for index in range(self.total)]


# -- coordinator --------------------------------------------------------------------


@dataclass
class _CoordinatorState:
    """Mutable run state shared by the socket handlers and the watchdog."""

    ledger: TrialLedger
    done: asyncio.Event = field(default_factory=asyncio.Event)
    ready: asyncio.Event = field(default_factory=asyncio.Event)
    workers_seen: int = 0
    connected: int = 0
    redispatched: int = 0
    #: Why the run ended without every result, set when ``done`` is.
    failure: str | None = None

    def note_progress(self) -> None:
        if self.ledger.done:
            self.done.set()


class Coordinator:
    """Asyncio TCP server leasing one experiment's trials to workers."""

    def __init__(
        self,
        job: Job,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        min_workers: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        timeout: float | None = None,
        transport: str = "plain",
        credential: TransportCredential | None = None,
        log=None,
    ) -> None:
        min_workers = max(workers, 1) if min_workers is None else min_workers
        if workers < 0:
            raise ValueError(f"worker count must be >= 0, got {workers}")
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if transport not in TRANSPORTS:
            supported = ", ".join(TRANSPORTS)
            raise ValueError(
                f"unknown transport {transport!r} (supported: {supported})"
            )
        if transport == "secure" and credential is None and workers == 0:
            raise ValueError(
                "a secure run awaiting external workers needs a TransportCredential "
                "(key files); only the spawn-local mode can generate throwaway keys"
            )
        self.job = job
        self.host = host
        self.port = port
        self.workers = workers
        self.min_workers = min_workers
        self.lease_seconds = lease_seconds
        self.timeout = timeout
        self.transport = transport
        self.credential = credential
        self.log = log or (lambda message: None)
        self.state = _CoordinatorState(
            ledger=TrialLedger(len(job.trials), chunk_size, lease_seconds)
        )
        self._job_frame = job_frame(job)
        self._worker_extra_args: list[str] = []
        self._handler_tasks: set[asyncio.Task] = set()
        self._handler_writers: set[asyncio.StreamWriter] = set()

    def run(self) -> list[dict]:
        """Serve to completion on a fresh event loop; the pipeline's executor.

        A secure spawn-local run without a credential provisions itself:
        throwaway coordinator and worker keypairs plus a one-key allowlist,
        handed to the spawned workers as ordinary key-file flags and deleted
        with the run — the handshake is fully exercised with zero
        provisioning.
        """
        if self.transport != "secure" or self.credential is not None:
            return asyncio.run(self.serve())
        with tempfile.TemporaryDirectory(prefix="repro-net-keys-") as key_dir:
            coordinator_pair = write_keypair(Path(key_dir) / "coordinator.key")
            worker_pair = write_keypair(Path(key_dir) / "worker.key")
            self.credential = TransportCredential(
                keypair=coordinator_pair,
                authorized=frozenset({worker_pair.public}),
            )
            self._worker_extra_args = [
                "--transport",
                "secure",
                "--keyfile",
                str(Path(key_dir) / "worker.key"),
                "--coordinator-key",
                str(Path(key_dir) / "coordinator.key.pub"),
            ]
            return asyncio.run(self.serve())

    async def serve(self) -> list[dict]:
        """Run to completion; returns the per-trial results in trial order.

        ``workers`` (the CLI's ``run --dist N`` convenience mode) launches
        that many worker processes against the bound port; if all of them
        exit while no worker is connected and trials remain, the run raises
        :class:`WorkersExitedError` instead of waiting for workers that will
        never come.
        """
        state = self.state
        if state.ledger.total == 0:
            return []
        server = await asyncio.start_server(self._handle_worker, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self.log(
            f"coordinator: {self.job.name} scale={self.job.scale} "
            f"seed={self.job.seed} trials={state.ledger.total} "
            f"listening on {self.host}:{self.port}"
        )
        spawned: list[subprocess.Popen] = []
        watchdogs = [asyncio.ensure_future(self._watch_expiry())]
        try:
            spawned = [self._spawn_local_worker(rank) for rank in range(self.workers)]
            if spawned:
                watchdogs.append(asyncio.ensure_future(self._watch_spawned(spawned)))
            await asyncio.wait_for(state.done.wait(), self.timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"distributed run of {self.job.name!r} timed out after "
                f"{self.timeout}s with {state.ledger.completed}/{state.ledger.total} "
                "trials complete"
            ) from None
        finally:
            for watchdog in watchdogs:
                watchdog.cancel()
            server.close()
            await server.wait_closed()
            await self._drain_handlers()
            self._reap(spawned)
        if state.failure is not None:
            raise WorkersExitedError(state.failure)
        return state.ledger.results_in_order()

    async def _drain_handlers(self) -> None:
        # Handlers park either at the min_workers barrier or in recv_frame()
        # waiting for their worker's next request; releasing the barrier and
        # closing the transports wakes them with a clean EOF so they finish
        # normally (and their workers see EOF = run over) instead of being
        # cancelled mid-read when the loop shuts down.
        self.state.ready.set()
        for writer in list(self._handler_writers):
            writer.close()
        pending = [task for task in self._handler_tasks if not task.done()]
        if pending:
            _done, leftover = await asyncio.wait(pending, timeout=2.0)
            for task in leftover:
                task.cancel()
            if leftover:
                await asyncio.wait(leftover, timeout=1.0)

    def _spawn_local_worker(self, rank: int) -> subprocess.Popen:
        command = [
            sys.executable,
            "-m",
            "repro.experiments",
            "worker",
            "--host",
            self.host,
            "--port",
            str(self.port),
            "--label",
            f"local-{rank}",
            *self._worker_extra_args,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")])
        )
        return subprocess.Popen(command, stdout=subprocess.DEVNULL, env=env)

    def _reap(self, workers: list[subprocess.Popen]) -> None:
        # Workers exit on the done frame / server EOF; escalate only if one
        # wedges (its trials were completed by somebody else regardless).
        for worker in workers:
            try:
                worker.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()

    async def _watch_spawned(self, spawned: list[subprocess.Popen]) -> None:
        # A worker that cannot start (or dies) never connects; once none is
        # left running or connected, nobody will finish the trials.
        state = self.state
        while not state.done.is_set():
            await asyncio.sleep(_SPAWN_POLL_SECONDS)
            codes = [worker.poll() for worker in spawned]
            if None in codes or state.connected or state.ledger.done:
                continue
            state.failure = (
                f"all {len(codes)} spawned worker(s) of {self.job.name!r} exited "
                f"(exit codes {', '.join(map(str, codes))}) with "
                f"{state.ledger.completed}/{state.ledger.total} trials complete"
            )
            state.done.set()

    async def _watch_expiry(self) -> None:
        state = self.state
        interval = max(self.lease_seconds / 4.0, 0.05)
        while not state.done.is_set():
            await asyncio.sleep(interval)
            expired = state.ledger.expire(time.monotonic())
            if expired:
                state.redispatched += len(expired)
                for lease in expired:
                    self.log(
                        f"coordinator: lease {lease.lease_id} "
                        f"({lease.worker}) expired; re-dispatching "
                        f"{len(lease.indices)} trial(s)"
                    )

    async def _handle_worker(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        state = self.state
        worker_key = ""
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        self._handler_writers.add(writer)
        try:
            channel = AioChannel(reader, writer)
            if self.transport == "secure":
                # The handshake (and the allowlist check inside it) runs to
                # completion before any protocol frame is read: an
                # unauthorized or tampering peer is rejected here, with no
                # job state touched.
                cred = self.credential
                try:
                    await channel.handshake(
                        handshake(cred.keypair, authorized=cred.authorized)
                    )
                except HandshakeError as exc:
                    self.log(f"coordinator: rejected connection: {exc}")
                    return
            hello = await channel.recv_frame()
            if hello is None:
                return
            message = decode_message(hello)
            if (
                message.get("type") != "hello"
                or message.get("protocol") != PROTOCOL_VERSION
            ):
                await self._send(
                    channel,
                    {
                        "type": "error",
                        "message": f"expected hello with protocol {PROTOCOL_VERSION}",
                    },
                )
                return
            state.workers_seen += 1
            state.connected += 1
            label = str(message.get("worker") or "worker")
            worker_key = f"{label}#{state.workers_seen}"
            self.log(f"coordinator: worker {worker_key} connected")
            await self._send(channel, self._job_frame)
            if state.connected >= self.min_workers:
                state.ready.set()
            await state.ready.wait()
            while True:
                frame = await channel.recv_frame()
                if frame is None:
                    break
                message = decode_message(frame)
                kind = message.get("type")
                if kind == "result":
                    self._record_result(message)
                elif kind != "request":
                    raise PacketFormatError(
                        f"unexpected message type {kind!r} from {worker_key}"
                    )
                reply = self._next_reply(worker_key)
                await self._send(channel, reply)
                if reply["type"] == "done":
                    break
        except (PacketFormatError, SecureTransportError, ConnectionError, OSError) as exc:
            self.log(f"coordinator: worker {worker_key or '<handshake>'} dropped: {exc}")
        except asyncio.CancelledError:
            # Only teardown cancels handlers (after the drain grace period);
            # swallowing keeps the loop's shutdown quiet.
            pass
        finally:
            self._handler_writers.discard(writer)
            if worker_key:
                state.connected -= 1
                released = state.ledger.release_worker(worker_key)
                if released:
                    state.redispatched += len(released)
                    trial_count = sum(len(lease.indices) for lease in released)
                    self.log(
                        f"coordinator: worker {worker_key} died holding "
                        f"{len(released)} lease(s); re-dispatching "
                        f"{trial_count} trial(s)"
                    )
            writer.close()

    def _record_result(self, message: dict) -> None:
        state = self.state
        results: dict[int, dict] = {}
        for entry in _frame_field(message, "results", list):
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and type(entry[0]) is int
                and isinstance(entry[1], dict)
            ):
                raise PacketFormatError(
                    "malformed result frame: 'results' entries must be [index, row] pairs"
                )
            results[entry[0]] = entry[1]
        state.ledger.complete(_frame_field(message, "lease_id", int), results)
        state.note_progress()

    def _next_reply(self, worker_key: str) -> dict:
        state = self.state
        if state.ledger.done:
            return {"type": "done"}
        lease = state.ledger.lease(worker_key, time.monotonic())
        if lease is None:
            return {"type": "wait", "seconds": DEFAULT_POLL_SECONDS}
        return {"type": "lease", "lease_id": lease.lease_id, "indices": list(lease.indices)}

    @staticmethod
    async def _send(channel, message: dict) -> None:
        await channel.send_frame(message_payload(message))


def run_distributed(
    name: str,
    scale: float = 1.0,
    seed: int | None = None,
    out_dir: str | Path | None = None,
    force: bool = False,
    backend: str = "sim",
    scheme: str | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 0,
    min_workers: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    timeout: float | None = None,
    transport: str = "plain",
    credential: TransportCredential | None = None,
    log=None,
) -> RunResult:
    """Coordinate one distributed experiment run to completion.

    With ``workers=0`` (the ``coordinate`` CLI) the coordinator binds and
    waits for externally started workers; ``workers=N`` additionally spawns
    ``N`` local worker processes against the bound port (the CLI's
    ``run --dist N`` convenience mode).  ``min_workers`` holds the first
    lease back until that many workers are connected (default: ``workers``
    or 1), so every one of them gets a share of the trials.

    ``transport="secure"`` mounts the frames on the authenticated
    :mod:`repro.net` channel.  A ``coordinate``-style run passes its own
    ``credential`` (loaded from key files); the spawn-local convenience mode
    may omit it and gets throwaway keys (:meth:`Coordinator.run`).  Either
    way the merged artifact is byte-identical to a plaintext run of the same
    ``(name, scale, seed)``.

    The run request and the artifact and cache behaviour are
    :func:`~repro.experiments.runner.run_experiment`'s — same
    :class:`~repro.experiments.runner.Job`, same pipeline — so deterministic
    sim-backend runs write (and may be served from) the same canonical
    ``<name>.json``, byte-identical to the single-process artifact.
    """
    job = Job(name, scale, seed, backend, scheme)
    job.require_shardable()
    coordinator = Coordinator(
        job,
        host=host,
        port=port,
        workers=workers,
        min_workers=min_workers,
        chunk_size=chunk_size,
        lease_seconds=lease_seconds,
        timeout=timeout,
        transport=transport,
        credential=credential,
        log=log,
    )
    result = run_job(job, coordinator.run, workers, out_dir, force)
    state = coordinator.state
    return replace(
        result,
        workers_seen=state.workers_seen,
        redispatched=state.redispatched,
        transport=transport,
    )


# -- worker -------------------------------------------------------------------------


def _connect_with_retry(host: str, port: int, connect_timeout: float) -> socket.socket:
    """Dial the coordinator, retrying while it is still binding its port."""
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            return socket.create_connection((host, port), timeout=connect_timeout)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    label: str | None = None,
    crash_after_leases: int | None = None,
    connect_timeout: float = 10.0,
    io_timeout: float = 600.0,
    transport: str = "plain",
    credential: TransportCredential | None = None,
    log=None,
) -> int:
    """Serve one coordinator until it reports ``done``; returns an exit code.

    The worker is synchronous on purpose — trial execution is CPU work, and
    one lease is outstanding at a time.  ``crash_after_leases=N`` is fault
    injection for the re-dispatch path: the worker completes its first ``N``
    leases normally, then dies abruptly (connection dropped, exit code 1)
    upon *receiving* the next one, leaving the coordinator to notice and
    re-enqueue it.

    With ``transport="secure"`` the worker runs the initiator side of the
    handshake right after connecting — ``credential`` supplies its static
    keypair and the coordinator public key it expects — and every protocol
    frame rides the AEAD channel.
    """
    log = log or (lambda message: None)
    if transport == "secure" and (
        credential is None or credential.remote_public is None
    ):
        print(
            "worker error: the secure transport needs a keypair and the "
            "coordinator's public key",
            file=sys.stderr,
        )
        return 1
    try:
        sock = _connect_with_retry(host, port, connect_timeout)
    except OSError as exc:
        print(
            f"worker error: could not reach coordinator at {host}:{port} "
            f"within {connect_timeout}s ({exc})",
            file=sys.stderr,
        )
        return 1
    try:
        sock.settimeout(io_timeout)
        channel = SyncChannel(sock)
        if transport == "secure":
            try:
                channel.handshake(
                    handshake(
                        credential.keypair, remote_public=credential.remote_public
                    )
                )
            except HandshakeError as exc:
                print(
                    f"worker error: secure handshake with {host}:{port} "
                    f"failed ({exc})",
                    file=sys.stderr,
                )
                return 1

        def send(message: dict) -> None:
            channel.send_frame(message_payload(message))

        def recv() -> dict | None:
            payload = channel.recv_frame()
            return None if payload is None else decode_message(payload)

        label = label or f"pid-{os.getpid()}"
        send({"type": "hello", "protocol": PROTOCOL_VERSION, "worker": label})
        frame = recv()
        if frame is None:
            return 1
        if frame.get("type") == "error":
            print(f"worker error: {frame.get('message')}", file=sys.stderr)
            return 1
        if frame.get("type") != "job" or frame.get("protocol") != PROTOCOL_VERSION:
            print(f"worker error: unexpected job frame {frame!r}", file=sys.stderr)
            return 1
        try:
            job = job_from_frame(frame)
        except (KeyError, UsageError) as error:
            # The coordinator's own checks, failing on this host: an unknown
            # experiment or a differing trial list means the two sides run
            # different code.
            print(
                f"worker error: cannot serve the coordinator's job: {error.args[0]}",
                file=sys.stderr,
            )
            return 1
        payloads = job.payloads()
        log(f"worker {label}: joined {job.name} ({len(payloads)} trials)")
        leases_taken = 0
        send({"type": "request"})
        while True:
            message = recv()
            if message is None or message["type"] == "done":
                # A vanished coordinator means the run finished (or was
                # aborted) without us; either way there is nothing to do.
                log(f"worker {label}: done after {leases_taken} lease(s)")
                return 0
            kind = message["type"]
            if kind == "wait":
                seconds = _frame_field(message, "seconds", int, float)
                time.sleep(min(max(0.0, seconds), 2.0))
                send({"type": "request"})
            elif kind == "lease":
                leases_taken += 1
                if crash_after_leases is not None and leases_taken > crash_after_leases:
                    log(f"worker {label}: injected crash on lease {leases_taken}")
                    sock.close()
                    return 1
                lease_id = _frame_field(message, "lease_id", int)
                indices = _frame_field(message, "indices", list)
                if not all(
                    type(index) is int and 0 <= index < len(payloads) for index in indices
                ):
                    raise PacketFormatError(
                        f"malformed lease frame: 'indices' is {indices!r}, expected "
                        f"trial indices in 0..{len(payloads) - 1}"
                    )
                results = []
                for index in indices:
                    _, result = execute_trial(payloads[index])
                    results.append([index, _jsonify(result)])
                send({"type": "result", "lease_id": lease_id, "results": results})
            else:
                print(
                    f"worker error: unexpected message type {kind!r}", file=sys.stderr
                )
                return 1
    except (PacketFormatError, SecureTransportError) as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Covers resets, refused writes and the io_timeout — a remote
        # coordinator dying must be a one-line failure, not a traceback.
        print(
            f"worker error: connection to coordinator {host}:{port} failed ({exc})",
            file=sys.stderr,
        )
        return 1
    finally:
        sock.close()
