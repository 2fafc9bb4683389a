"""The four benchmark workloads: one verified transfer *round* each.

A round builds a substrate, establishes the route(s), ships the data bursts,
checks every delivered plaintext byte-for-byte against what was sent and
closes the substrate.  Load is a closed loop with one client: one process,
one thread, and the next burst is sent only after the previous one has
drained.  Rounds drive the program through its public runtime API only and
time it from outside; the seed reaches only the generators below, the
program sees the generated inputs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from hostspeed import HostSpeed
from repro.core.source import Source
from repro.experiments.throughput import connection_bps_for, prepare_scheme_transfer
from repro.overlay.node import SlicingRuntime
from repro.overlay.profiles import LAN_PROFILE, PLANETLAB_PROFILE
from repro.overlay.runtime import aggregate_relay_stats, build_substrate

MESSAGE_BYTES = 1500
BURSTS = 8
BURST_MESSAGES = 64


@dataclass
class RoundLog:
    """What one round measured, filled in by the workload as it runs.

    Seconds are calibrated (see ``hostspeed.py``) unless named ``raw``.
    """

    host: HostSpeed
    index: int = 0
    establish_s: list[float] = field(default_factory=list)
    healthy_burst_s: list[float] = field(default_factory=list)
    degraded_burst_s: list[float] = field(default_factory=list)
    data_wall_s: float = 0.0
    data_cpu_s: float = 0.0
    raw_data_wall_s: float = 0.0
    raw_phases_s: float = 0.0
    phases_s: float = 0.0
    sent: int = 0
    failed: int = 0
    verified_bytes: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    round_s: float = 0.0
    raw_round_s: float = 0.0

    @contextmanager
    def _measured(self, name: str) -> Iterator[list[float]]:
        """Time a ``driver/<name>`` span.  On exit the list holds its raw wall
        seconds, raw CPU seconds and mean slowdown, kernel time taken out."""
        tracer = self.host.tracer
        measured = [0.0, 0.0, 1.0]
        first = self.host.sample()
        with tracer.span(f"driver/{name}") if tracer else nullcontext():
            wall, cpu = time.perf_counter(), time.process_time()
            yield measured
            end, cpu = time.perf_counter(), time.process_time() - cpu
        self.host.sample()
        kernel_s, slowdown = self.host.window(first, wall, end)
        measured[:] = end - wall - kernel_s, cpu - kernel_s, slowdown

    def _phase(self, measured: list[float]) -> float:
        """Book one finished phase; returns its calibrated wall seconds."""
        raw_s, _cpu_s, slowdown = measured
        self.raw_phases_s += raw_s
        self.phases_s += raw_s / slowdown
        return raw_s / slowdown

    @contextmanager
    def establish(self) -> Iterator[None]:
        with self._measured("establish") as measured:
            yield
        self.establish_s.append(self._phase(measured))

    @contextmanager
    def burst(self, degraded: bool = False) -> Iterator[None]:
        """One data burst: send, then drain.  Bursts make up the data phase."""
        with self._measured("burst") as measured:
            yield
        raw_s, cpu_s, slowdown = measured
        seconds = self._phase(measured)
        (self.degraded_burst_s if degraded else self.healthy_burst_s).append(seconds)
        self.data_wall_s += seconds
        self.data_cpu_s += cpu_s / slowdown
        self.raw_data_wall_s += raw_s

    @contextmanager
    def round(self) -> Iterator[None]:
        """Time the whole round.  What lies outside its phases (construction,
        payload generation, verification, ``close()``) is calibrated with the
        mean slowdown of the round."""
        with self._measured("round") as measured:
            yield
        self.raw_round_s, _cpu_s, slowdown = measured
        self.round_s = self.phases_s + (self.raw_round_s - self.raw_phases_s) / slowdown

    def verify(self, sent: list[bytes], delivered: dict[int, bytes]) -> None:
        """Compare what the destination decoded with what was sent, by sequence."""
        self.sent += len(sent)
        for seq, message in enumerate(sent):
            if delivered.get(seq) == message:
                self.verified_bytes += len(message)
            else:
                self.failed += 1

    def count(self, substrate, relay_counters: dict[str, int]) -> None:
        """Add the program's own counters for one finished transfer."""
        stats = substrate.stats
        for name, value in (
            ("events", substrate.sim.events_processed),
            ("packets_sent", stats.packets_sent),
            ("bytes_sent", stats.bytes_sent),
            ("packets_dropped", stats.packets_dropped),
            ("packets_received", relay_counters.get("packets_received", 0)),
            ("messages_delivered", relay_counters.get("messages_delivered", 0)),
            ("regenerated_slices", relay_counters.get("regenerated_slices", 0)),
        ):
            self.counters[name] = self.counters.get(name, 0) + value


def round_seed(seed: int, index: int) -> int:
    """Round seeds depend on ``--seed`` and the round's index only."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _generators(seed: int | tuple[int, ...]) -> tuple[int, np.random.Generator]:
    """The program's seed and the payload generator of one transfer."""
    program, payload = np.random.SeedSequence(seed).generate_state(2)
    return int(program), np.random.default_rng(int(payload))


def _messages(rng: np.random.Generator, count: int) -> list[bytes]:
    return [rng.bytes(MESSAGE_BYTES) for _ in range(count)]


def _single_flow(log: RoundLog, seed: int | tuple[int, ...], scheme: str, backend: str, path_length: int,
                 d: int, d_prime: int, fail_before_burst: int | None = None) -> None:
    """One transfer of one scheme: establish, then 8 bursts of 64 messages."""
    program_seed, payload_rng = _generators(seed)
    substrate, runtime, relays, destination = prepare_scheme_transfer(
        scheme, LAN_PROFILE, path_length, d, d_prime, program_seed, "batched", backend
    )
    try:
        with log.establish():
            runtime.establish(relays, destination)
            substrate.sim.run()
        sent: list[bytes] = []
        degraded = False
        for burst in range(BURSTS):
            if burst == fail_before_burst:
                stage = runtime.flow.graph.stages[2]
                substrate.fail_node(next(a for a in stage if a != destination))
                degraded = True
            messages = _messages(payload_rng, BURST_MESSAGES)
            with log.burst(degraded):
                runtime.send_messages(messages)
                substrate.sim.run()
            sent.extend(messages)
        log.verify(sent, runtime.delivered_plaintexts())
        log.count(substrate, runtime.relay_counters())
    finally:
        substrate.close()


def slicing_churn(log: RoundLog, seed: int) -> None:
    _single_flow(log, seed, "slicing", "sim", 4, 2, 3, fail_before_burst=4)


def aio_loopback(log: RoundLog, seed: int) -> None:
    _single_flow(log, seed, "slicing", "aio", 4, 2, 3)


def circuit_bulk(log: RoundLog, seed: int) -> None:
    for stream, scheme in enumerate(("onion", "sphinx")):
        _single_flow(log, (seed, stream), scheme, "sim", 5, 1, 1)


def slicing_manyflows(log: RoundLog, seed: int) -> None:
    """Fig. 13's configuration: 32 flows contending on one 100-node overlay."""
    flows, d, path_length, burst_messages = 32, 3, 5, 16
    program_seed, payload_rng = _generators(seed)
    overlay = [f"pl-{index}" for index in range(100)]
    source_stages = [[f"flow{flow}-src-{i}" for i in range(d)] for flow in range(flows)]
    destinations = [f"flow{flow}-dst" for flow in range(flows)]
    addresses = [*overlay, *(a for stage in source_stages for a in stage), *destinations]
    network = PLANETLAB_PROFILE.build_network(addresses, np.random.default_rng(program_seed))
    substrate = build_substrate(
        "sim", network, connection_bps=connection_bps_for(PLANETLAB_PROFILE)
    )
    try:
        runtime = SlicingRuntime(substrate, rng=np.random.default_rng(program_seed + 1))
        established = []
        with log.establish():
            for index, (stage, destination) in enumerate(zip(source_stages, destinations)):
                source = Source(
                    stage[0], stage[1:], d=d, d_prime=d, path_length=path_length,
                    rng=np.random.default_rng(program_seed + 31 * index + 2),
                )
                flow = source.establish_flow(overlay, destination)
                runtime.start_flow(source, flow)
                established.append((source, flow))
            substrate.sim.run()
        bursts = [_messages(payload_rng, burst_messages) for _ in established]
        with log.burst():
            for (source, flow), messages in zip(established, bursts):
                runtime.send_messages(source, flow, messages)
            substrate.sim.run()
        for (_source, flow), messages in zip(established, bursts):
            relay = runtime.relays.get(flow.destination)
            flow_id = flow.plan.flow_ids[flow.destination]
            log.verify(messages, relay.delivered_messages(flow_id) if relay else {})
        log.count(substrate, aggregate_relay_stats(runtime.relays.values()))
    finally:
        substrate.close()


@dataclass(frozen=True)
class Workload:
    name: str
    run_round: Callable[[RoundLog, int], None]
    #: Rounds of the traced pass per second of ``--seconds``: fixed work, so
    #: the traced counts repeat exactly under one seed.  Sized on the 2-core
    #: reference host so the traced run (an untraced pass over these rounds,
    #: then the traced one) lasts about ``--seconds``.
    traced_rounds_per_second: float
    note: str = ""
    #: The traced run ends with three untraced ``fig11`` runs.
    times_fig11: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("slicing-churn", slicing_churn, 0.7),
        Workload("slicing-manyflows", slicing_manyflows, 0.3),
        Workload("circuit-bulk", circuit_bulk, 0.7, times_fig11=True),
        Workload(
            "aio-loopback", aio_loopback, 0.4,
            note="traffic crosses the host loopback (127.0.0.1), not a link",
        ),
    )
}
