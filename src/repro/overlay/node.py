"""Simulated overlay node runtime.

:class:`SimulatedOverlayNetwork` combines the event loop
(:class:`~repro.overlay.simulator.EventSimulator`), the network model
(latency, per-connection capacity), per-node CPU accounting, and node
failures into a generic substrate over which protocol adapters run.  The
information-slicing adapter (:class:`SlicingRuntime`) wires the real
:class:`~repro.core.relay.Relay` engines into this substrate; the onion
baselines in :mod:`repro.baselines` provide their own adapters.

The accounting and the payload-carrying transmit surface live on the
:class:`OverlayTransport` base class, which the asyncio socket backend
(:mod:`repro.overlay.aio`) also implements — the adapters run unchanged on
either backend.

Resource model
--------------
* every directed (sender, receiver) pair is a *connection* with a serialisation
  rate (``connection_bps``); packets queue on it in FIFO order — this is what
  makes a single onion path top out at one connection's worth of throughput
  while information slicing's ``d`` parallel connections scale further (§7.2);
* every node has a CPU; work items (coding, symmetric crypto, per-packet
  handling) queue on it;
* a failed node silently drops everything addressed to it (the paper's
  unreachable PlanetLab nodes).

Data plane
----------
A burst of packets on one connection becomes one
:meth:`~SimulatedOverlayNetwork.transmit_batch` (per-packet serialisation and
CPU *times* are still accounted exactly, so the simulated clock stays
comparable), deliveries landing at one relay at one simulated instant
coalesce into a single batch event
(:meth:`~repro.overlay.simulator.EventSimulator.schedule_keyed`), and the
relay decodes whole batches through the batched GF(2^8) kernels.  The
per-packet reference plane — every packet its own transmit, arrival and CPU
event, the relay decoding per message — lives in
``tests/oracles/dataplane.py``.  Delivered messages and relay counters are
bit-identical to it under a shared seed
(``tests/test_dataplane.py::test_batched_plane_bit_identical_to_scalar_reference``);
only host wall-clock and sub-millisecond event interleavings differ.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.errors import SimulationError
from ..core.packet import Packet, PacketKind
from ..core.relay import Relay
from ..core.source import FlowSetup, Source
from .network import NetworkModel
from .simulator import EventSimulator

#: Fixed per-packet handling overhead (seconds) on the steady-state data path
#: (flow-table hit, copy, forward).
DEFAULT_PER_PACKET_OVERHEAD = 3e-5

#: Extra per-packet cost (seconds) of processing a *setup* packet in the
#: prototype's user-space daemon: thread dispatch, flow-table creation and the
#: pure-Python matrix work of §4.3.5.  This is what makes route setup take
#: hundreds of milliseconds in the paper's Fig. 14 despite a quiet LAN.
DEFAULT_SETUP_PROCESSING_OVERHEAD = 0.008

#: Default per-flow retention window (sequence numbers) for relay data state.
DEFAULT_SEQ_RETENTION = 1024

#: Default idle time (simulated seconds) after which relay flow-table entries
#: are garbage collected.
DEFAULT_FLOW_RETENTION_SECONDS = 900.0

#: Default pipelining quantum of the data plane: bursts ship in chunks of
#: this many packets per connection.  A chunk is one simulator event, so
#: events collapse by up to this factor, while chunks of one hop still
#: overlap the next hop's serialisation — keeping the stage-pipelining
#: behaviour (and therefore the throughput figures) of the per-packet path.
DEFAULT_BATCH_CHUNK = 16


def _queue_dones(
    free: float, starts: Sequence[float], durations: Sequence[float]
) -> list[float]:
    """Completion times of a FIFO queue: ``done_i = max(start_i, done_{i-1}) + dur_i``.

    Small batches run the plain recurrence; larger ones use its closed form
    ``done_i = c_i + max(free, max_{j<=i}(start_j - c_{j-1}))`` (``c`` the
    running sum of durations), in one pass.  The closed form's float
    operations and their order are those of its numpy statement
    (``cumsum``, ``maximum.accumulate``, ``maximum``), so the virtual clock
    is the same to the last bit (``tests/test_event_core.py`` keeps that
    statement as the oracle).
    """
    dones: list[float] = []
    if len(durations) < 8:
        for start, duration in zip(starts, durations):
            begin = start if start > free else free
            free = begin + duration
            dones.append(free)
        return dones
    c = 0.0
    slack = -math.inf
    for start, duration in zip(starts, durations):
        c += duration
        gap = start - (c - duration)
        if gap > slack:
            slack = gap
        dones.append(c + (slack if slack >= free else free))
    return dones


@dataclass
class TransmissionStats:
    """Aggregate counters maintained by the simulated network."""

    packets_sent: int = 0
    packets_dropped: int = 0
    bytes_sent: int = 0


class OverlayTransport:
    """Accounting shared by every overlay backend: connections, CPUs, failures.

    The virtual-time arithmetic (per-connection FIFO serialisation, per-node
    CPU queues, drop-on-failure, aggregate counters) lives here so the
    discrete-event backend (:class:`SimulatedOverlayNetwork`) and the asyncio
    socket backend (:class:`~repro.overlay.aio.AioOverlayNetwork`) account
    packets identically; only *how* a packet travels differs.  Subclasses
    provide ``self.sim`` (an :class:`~repro.overlay.simulator.EventSimulator`
    or a compatible clock) and the payload-carrying transmit surface.
    """

    sim: EventSimulator

    def __init__(
        self,
        network: NetworkModel,
        connection_bps: float,
        per_packet_overhead: float = DEFAULT_PER_PACKET_OVERHEAD,
    ) -> None:
        self.network = network
        self.connection_bps = connection_bps
        self.per_packet_overhead = per_packet_overhead
        self.stats = TransmissionStats()
        self._link_free_at: dict[tuple[str, str], float] = {}
        self._cpu_free_at: dict[str, float] = {}
        self._failed_at: dict[str, float] = {}

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (sockets, loops); a no-op for the sim."""

    def __enter__(self) -> "OverlayTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- payload-carrying transmit surface ----------------------------------------
    #
    # The protocol runtimes ship through these three calls only, so they run
    # unchanged on any backend.  ``deliver`` receives the delivered payload
    # objects: the simulator hands back the originals, the asyncio backend
    # hands back what it parsed off the wire.

    def transmit_packets(
        self,
        sender: str,
        receiver: str,
        packets: list[Packet],
        deliver: Callable[[list[Packet], list[float]], None],
        sender_cpu_seconds: Sequence[float] | None = None,
    ) -> None:
        raise NotImplementedError

    def transmit_blobs(
        self,
        sender: str,
        receiver: str,
        blobs: list[bytes],
        deliver: Callable[[list[bytes], list[float]], None],
        sender_cpu_seconds: Sequence[float] | None = None,
    ) -> None:
        raise NotImplementedError

    def transmit_blob(
        self,
        sender: str,
        receiver: str,
        blob: bytes,
        deliver: Callable[[bytes], None],
        sender_cpu_seconds: float = 0.0,
    ) -> None:
        raise NotImplementedError

    # -- failures ------------------------------------------------------------------

    def fail_node(self, address: str, at_time: float | None = None) -> None:
        """Kill ``address`` now or at an absolute simulated time."""
        when = self.sim.now if at_time is None else at_time
        previous = self._failed_at.get(address)
        if previous is None or when < previous:
            self._failed_at[address] = when

    def is_alive(self, address: str, at_time: float | None = None) -> bool:
        when = self.sim.now if at_time is None else at_time
        failed_at = self._failed_at.get(address)
        return failed_at is None or when < failed_at

    # -- resource accounting ----------------------------------------------------------

    def _reserve_link(self, sender: str, receiver: str, size_bytes: int) -> float:
        """Queue a packet on the (sender, receiver) connection; return send-done time."""
        key = (sender, receiver)
        start = max(self.sim.now, self._link_free_at.get(key, 0.0))
        done = start + size_bytes * 8.0 / self.connection_bps
        self._link_free_at[key] = done
        return done

    def reserve_cpu(self, address: str, work_seconds: float) -> float:
        """Queue ``work_seconds`` of CPU work on a node; return completion time."""
        start = max(self.sim.now, self._cpu_free_at.get(address, 0.0))
        done = start + work_seconds
        self._cpu_free_at[address] = done
        return done

    def reserve_cpu_sequence(
        self, address: str, starts: Sequence[float], durations: Sequence[float]
    ) -> list[float]:
        """Queue a batch of CPU work items in one pass; returns completion times.

        Item ``i`` begins no earlier than ``starts[i]`` (its packet's arrival
        instant) and no earlier than the CPU becomes free — exactly the
        arithmetic ``count`` individual :meth:`reserve_cpu` calls at those
        instants would produce, collapsed into one bookkeeping pass so a
        whole batch needs a single completion event.
        """
        if not durations:
            return []
        free = self._cpu_free_at.get(address, 0.0)
        dones = _queue_dones(free, starts, durations)
        self._cpu_free_at[address] = dones[-1]
        return dones

    # -- shared batch arithmetic --------------------------------------------------------

    def _normalise_cpus(
        self, count: int, sender_cpu_seconds: Sequence[float] | None
    ) -> list[float]:
        """One CPU cost per packet, validated."""
        if sender_cpu_seconds is None:
            return [0.0] * count
        cpus = list(sender_cpu_seconds)
        if len(cpus) != count:
            raise SimulationError(
                "transmit_batch needs one CPU cost per packet "
                f"({len(cpus)} costs for {count} packets)"
            )
        return cpus

    def _account_batch(
        self, sender: str, receiver: str, sizes: Sequence[int], cpus: Sequence[float]
    ) -> list[float]:
        """Reserve sender CPU and the connection for a burst; return arrivals.

        This is the exact per-packet arithmetic of the per-packet path — each
        packet queues on the sender CPU (its cost plus the fixed per-packet
        overhead), serialises on the (sender, receiver) connection in order,
        and arrives one propagation delay later — collapsed into one
        bookkeeping pass.  Both backends call it, so their virtual clocks and
        counters agree.
        """
        now = self.sim.now
        ready_times = self.reserve_cpu_sequence(
            sender,
            [now] * len(sizes),
            [cpu + self.per_packet_overhead for cpu in cpus],
        )
        key = (sender, receiver)
        latency = self.network.latency(sender, receiver)
        scale = 8.0 / self.connection_bps
        link_dones = _queue_dones(
            self._link_free_at.get(key, 0.0),
            ready_times,
            [size * scale for size in sizes],
        )
        self._link_free_at[key] = link_dones[-1]
        self.stats.packets_sent += len(sizes)
        self.stats.bytes_sent += sum(sizes)
        return [done + latency for done in link_dones]


class SimulatedOverlayNetwork(OverlayTransport):
    """Discrete-event transport substrate: everything runs on a virtual clock."""

    def __init__(
        self,
        network: NetworkModel,
        connection_bps: float,
        per_packet_overhead: float = DEFAULT_PER_PACKET_OVERHEAD,
        simulator: EventSimulator | None = None,
    ) -> None:
        super().__init__(network, connection_bps, per_packet_overhead)
        self.sim = EventSimulator() if simulator is None else simulator

    # -- transmission -------------------------------------------------------------------

    def transmit(
        self,
        sender: str,
        receiver: str,
        size_bytes: int,
        on_delivered: Callable[[], None],
        sender_cpu_seconds: float = 0.0,
    ) -> None:
        """Send ``size_bytes`` from ``sender`` to ``receiver``.

        The sender first spends ``sender_cpu_seconds`` of CPU (plus the fixed
        per-packet overhead), then the packet serialises onto the connection,
        propagates, and ``on_delivered`` fires at the receiver — unless either
        endpoint has failed by the relevant instant.
        """
        if not self.is_alive(sender):
            self.stats.packets_dropped += 1
            return
        cpu_done = self.reserve_cpu(
            sender, sender_cpu_seconds + self.per_packet_overhead
        )

        def start_transmission() -> None:
            if not self.is_alive(sender):
                self.stats.packets_dropped += 1
                return
            link_done = self._reserve_link(sender, receiver, size_bytes)
            arrival = link_done + self.network.latency(sender, receiver)
            self.stats.packets_sent += 1
            self.stats.bytes_sent += size_bytes

            def deliver() -> None:
                if not self.is_alive(receiver):
                    self.stats.packets_dropped += 1
                    return
                on_delivered()

            self.sim.schedule_at(arrival, deliver)

        self.sim.schedule_at(cpu_done, start_transmission)

    def transmit_batch(
        self,
        sender: str,
        receiver: str,
        sizes: Sequence[int],
        on_delivered: Callable[[list[float]], None],
        sender_cpu_seconds: Sequence[float] | None = None,
    ) -> None:
        """Send a burst of packets on one connection with one delivery event.

        Per-packet times are accounted exactly as :meth:`transmit` would:
        each packet queues on the sender CPU (its cost plus the fixed
        per-packet overhead), then serialises on the connection in order, and
        arrives one propagation delay later.  But the whole burst raises a
        *single* simulator event, fired at the last packet's arrival instant,
        and ``on_delivered`` receives every packet's individual arrival time
        so the receiver can charge its CPU faithfully.

        Two modelling simplifications relative to the per-packet path: link
        and CPU capacity are reserved when the batch is submitted (competing
        traffic submitted later queues behind the whole burst), and a sender
        failing mid-burst no longer truncates it — the batch is committed
        once submission succeeds.  Neither changes any experiment that fails
        nodes between phases, which is how churn is modelled.
        """
        sizes = list(sizes)
        if not sizes:
            return
        if not self.is_alive(sender):
            self.stats.packets_dropped += len(sizes)
            return
        cpus = self._normalise_cpus(len(sizes), sender_cpu_seconds)
        arrivals = self._account_batch(sender, receiver, sizes, cpus)

        def deliver() -> None:
            if not self.is_alive(receiver):
                self.stats.packets_dropped += len(sizes)
                return
            on_delivered(arrivals)

        self.sim.schedule_at(arrivals[-1], deliver)

    # -- payload-carrying surface (the originals are delivered directly) ---------------

    def transmit_packets(
        self,
        sender: str,
        receiver: str,
        packets: list[Packet],
        deliver: Callable[[list[Packet], list[float]], None],
        sender_cpu_seconds: Sequence[float] | None = None,
    ) -> None:
        self.transmit_batch(
            sender,
            receiver,
            [packet.size_bytes() for packet in packets],
            lambda arrivals: deliver(packets, arrivals),
            sender_cpu_seconds=sender_cpu_seconds,
        )

    def transmit_blobs(
        self,
        sender: str,
        receiver: str,
        blobs: list[bytes],
        deliver: Callable[[list[bytes], list[float]], None],
        sender_cpu_seconds: Sequence[float] | None = None,
    ) -> None:
        self.transmit_batch(
            sender,
            receiver,
            [len(blob) for blob in blobs],
            lambda arrivals: deliver(blobs, arrivals),
            sender_cpu_seconds=sender_cpu_seconds,
        )

    def transmit_blob(
        self,
        sender: str,
        receiver: str,
        blob: bytes,
        deliver: Callable[[bytes], None],
        sender_cpu_seconds: float = 0.0,
    ) -> None:
        self.transmit(
            sender,
            receiver,
            len(blob),
            lambda: deliver(blob),
            sender_cpu_seconds=sender_cpu_seconds,
        )


@dataclass
class FlowProgress:
    """Observable progress of one information-slicing flow in the simulator."""

    setup_injected_at: float = 0.0
    relay_decode_times: dict[str, float] = field(default_factory=dict)
    delivered_messages: dict[int, float] = field(default_factory=dict)
    delivered_bytes: int = 0
    first_delivery_at: float | None = None
    last_delivery_at: float | None = None

    def setup_complete_time(self, relays: list[str]) -> float | None:
        """Time at which every listed relay had decoded its routing info."""
        times = [self.relay_decode_times.get(relay) for relay in relays]
        if any(time is None for time in times):
            return None
        return max(times)


class SlicingRuntime:
    """Runs real :class:`~repro.core.relay.Relay` engines over the simulator.

    Parameters
    ----------
    substrate:
        The shared transport substrate.
    rng:
        Stored as ``self.rng`` and never read: every relay draws from its own
        generator, seeded by ``sha256(address)`` (see :meth:`add_relay`).
        The parameter stays because existing callers pass it.
    flush_timeout:
        Simulated seconds after which un-forwardable state is flushed
        (timeout-driven padding/regeneration, §4.4.1).
    setup_processing_overhead:
        Per-setup-packet daemon cost (see
        :data:`DEFAULT_SETUP_PROCESSING_OVERHEAD`).
    seq_retention:
        Per-flow retention window: when data message ``seq`` is flushed,
        relay state for sequence numbers below ``seq + 1 - seq_retention``
        (stored slices, forward and flush markers) is retired, bounding relay
        memory on long-running flows.  ``None`` disables retirement.
    flow_retention_seconds:
        Relay flow-table entries idle longer than this are garbage collected
        (the satellite of :meth:`Relay.garbage_collect
        <repro.core.relay.Relay.garbage_collect>`).  ``None`` disables.
    """

    def __init__(
        self,
        substrate: OverlayTransport,
        rng: np.random.Generator | None = None,
        flush_timeout: float = 2.0,
        setup_processing_overhead: float = DEFAULT_SETUP_PROCESSING_OVERHEAD,
        seq_retention: int | None = DEFAULT_SEQ_RETENTION,
        flow_retention_seconds: float | None = DEFAULT_FLOW_RETENTION_SECONDS,
        batch_chunk: int = DEFAULT_BATCH_CHUNK,
    ) -> None:
        if seq_retention is not None and seq_retention < 1:
            raise SimulationError(f"seq_retention must be >= 1, got {seq_retention}")
        if batch_chunk < 1:
            raise SimulationError(f"batch_chunk must be >= 1, got {batch_chunk}")
        self.substrate = substrate
        self.rng = np.random.default_rng() if rng is None else rng
        self.flush_timeout = flush_timeout
        self.setup_processing_overhead = setup_processing_overhead
        self.seq_retention = seq_retention
        self.flow_retention_seconds = flow_retention_seconds
        self.batch_chunk = batch_chunk
        self.relays: dict[str, Relay] = {}
        self.progress: dict[int, FlowProgress] = {}
        self._flow_setups: dict[int, FlowSetup] = {}
        self._flows_by_id: dict[int, tuple[FlowSetup, FlowProgress]] = {}

    @property
    def sim(self) -> EventSimulator:
        return self.substrate.sim

    def add_relay(self, address: str) -> Relay:
        if address not in self.relays:
            # A stable digest, not hash(): str hashes vary with PYTHONHASHSEED,
            # and "same seed, same bytes" must not depend on the interpreter.
            seed = int.from_bytes(hashlib.sha256(address.encode()).digest()[:4], "big")
            self.relays[address] = Relay(address, rng=np.random.default_rng(seed))
        return self.relays[address]

    # -- driving a flow ------------------------------------------------------------------

    def start_flow(self, source: Source, flow: FlowSetup) -> FlowProgress:
        """Inject a flow's setup packets and arm the per-relay flush timers."""
        for relay_address in flow.graph.relays:
            self.add_relay(relay_address)
        progress = FlowProgress(setup_injected_at=self.sim.now)
        key = id(flow)
        self.progress[key] = progress
        self._flow_setups[key] = flow
        for flow_id in flow.plan.flow_ids.values():
            self._flows_by_id[flow_id] = (flow, progress)
        for packet in flow.setup_packets:
            self._transmit_packets(
                packet.source_address,
                packet.destination_address,
                [packet],
                [0.0],
            )
        # Timeout-driven flush so churn cannot wedge the setup forever.
        self.sim.schedule(self.flush_timeout, lambda: self._flush_setup(flow))
        return progress

    def send_messages(
        self, source: Source, flow: FlowSetup, messages: list[bytes]
    ) -> None:
        """Code and ship a burst of data messages in one pass.

        The coding happens through
        :meth:`~repro.core.source.Source.make_data_packets_batch`, so the
        GF(2^8) work for the whole burst is a single batched kernel call; the
        per-message CPU *cost model* charged to the source is unchanged, so
        simulated timings stay comparable with the per-message path.  The
        burst ships as one :meth:`~SimulatedOverlayNetwork.transmit_batch`
        per connection and chunk, and is covered by a single flush timer.
        """
        if not messages:
            return
        packet_batches = source.make_data_packets_batch(flow, messages)
        progress = self.progress[id(flow)]
        source_resources = self.substrate.network.resources(source.address)
        per_connection: dict[tuple[str, str], tuple[list[Packet], list[float]]] = {}
        for message, packets in zip(messages, packet_batches):
            per_packet_cpu = source_resources.coding_time(
                max(len(message) // max(flow.d, 1), 1), flow.d
            )
            for packet in packets:
                key = (packet.source_address, packet.destination_address)
                entry = per_connection.setdefault(key, ([], []))
                entry[0].append(packet)
                entry[1].append(per_packet_cpu)
        for (sender, receiver), (packets, cpus) in per_connection.items():
            self._transmit_packets(sender, receiver, packets, cpus)
        seqs = [packets[0].seq for packets in packet_batches]
        self.sim.schedule(
            self.flush_timeout,
            lambda: self._flush_data_burst(flow, progress, seqs),
        )

    # -- data plane ------------------------------------------------------------------------

    def _transmit_packets(
        self,
        sender: str,
        receiver: str,
        packets: list[Packet],
        sender_cpus: list[float],
    ) -> None:
        """Ship a same-connection burst; deliveries coalesce per receiver.

        Bursts larger than ``batch_chunk`` ship as consecutive chunks, each a
        single delivery event, so one hop's chunks overlap the next hop's
        serialisation (stage pipelining) instead of the whole burst marching
        stage by stage.
        """
        chunk = self.batch_chunk
        for start in range(0, len(packets), chunk):
            chunk_packets = packets[start : start + chunk]
            chunk_cpus = sender_cpus[start : start + chunk]

            def on_delivered(delivered: list[Packet], arrivals: list[float]) -> None:
                self.sim.schedule_keyed(
                    ("rx", receiver),
                    self.sim.now,
                    (delivered, arrivals),
                    lambda items: self._process_inbox(receiver, items),
                )

            self.substrate.transmit_packets(
                sender,
                receiver,
                chunk_packets,
                on_delivered,
                sender_cpu_seconds=chunk_cpus,
            )

    def _process_inbox(
        self, receiver: str, items: list[tuple[list[Packet], list[float]]]
    ) -> None:
        """Charge receiver CPU for every coalesced packet; then process once."""
        relay = self.relays.get(receiver)
        if relay is None:
            return
        packets: list[Packet] = []
        arrivals: list[float] = []
        for batch_packets, batch_arrivals in items:
            packets.extend(batch_packets)
            arrivals.extend(batch_arrivals)
        resources = self.substrate.network.resources(receiver)
        durations = self._batch_durations(packets, resources)
        dones = self.substrate.reserve_cpu_sequence(receiver, arrivals, durations)
        self.sim.schedule_at(dones[-1], lambda: self._handle_batch(receiver, packets))

    def _batch_durations(self, packets: list[Packet], resources) -> list[float]:
        """Per-packet CPU durations; one cost computation for a uniform batch.

        Uniformity is judged on what the cost actually depends on — kind,
        split factor and payload bytes (the single-slice steady state makes
        the latter one attribute read per packet); anything else takes the
        per-packet path.
        """
        first = packets[0]
        kind0 = first.kind
        d0 = first.d
        slices0 = first.slices
        if len(slices0) == 1:
            payload0 = slices0[0].payload.shape[0]
            uniform = all(
                p.kind is kind0
                and p.d == d0
                and len(p.slices) == 1
                and p.slices[0].payload.shape[0] == payload0
                for p in packets
            )
            if uniform:
                cost = self._packet_cpu_cost(first, resources)
                return [cost] * len(packets)
        return [self._packet_cpu_cost(packet, resources) for packet in packets]

    def _packet_cpu_cost(self, packet: Packet, resources) -> float:
        slices = packet.slices
        if len(slices) == 1:
            payload_bytes = slices[0].payload.shape[0]
        else:
            payload_bytes = sum(block.payload.shape[0] for block in slices)
        cost = resources.coding_time(payload_bytes, packet.d)
        if packet.kind == PacketKind.SETUP:
            cost += self.setup_processing_overhead * resources.load_factor
        return cost + self.substrate.per_packet_overhead

    def _handle_batch(self, receiver: str, packets: list[Packet]) -> None:
        relay = self.relays.get(receiver)
        if relay is None:
            return
        tracked: dict[int, tuple[FlowSetup, FlowProgress, bool]] = {}
        for packet in packets:
            if packet.flow_id in tracked:
                continue
            entry = self._flows_by_id.get(packet.flow_id)
            if entry is None:
                continue
            flow, progress = entry
            tracked[packet.flow_id] = (
                flow,
                progress,
                self._relay_decoded(relay, flow, receiver),
            )
        outputs = relay.handle_packets(packets, now=self.sim.now)
        for flow, progress, decoded_before in tracked.values():
            if not decoded_before and self._relay_decoded(relay, flow, receiver):
                progress.relay_decode_times.setdefault(receiver, self.sim.now)
            self._record_delivery(relay, flow, progress, receiver)
        self._dispatch_outputs(receiver, outputs)

    def _dispatch_outputs(self, sender: str, outputs: list[Packet]) -> None:
        if not outputs:
            return
        per_receiver: dict[str, list[Packet]] = {}
        for packet in outputs:
            per_receiver.setdefault(packet.destination_address, []).append(packet)
        for receiver, packets in per_receiver.items():
            self._transmit_packets(sender, receiver, packets, [0.0] * len(packets))

    # -- progress and flushes -----------------------------------------------------------------

    def _relay_decoded(self, relay: Relay, flow: FlowSetup, address: str) -> bool:
        flow_id = flow.plan.flow_ids.get(address)
        state = relay.flows.get(flow_id) if flow_id is not None else None
        return bool(state and state.decoded)

    def _record_delivery(
        self, relay: Relay, flow: FlowSetup, progress: FlowProgress, address: str
    ) -> None:
        if address != flow.destination:
            return
        flow_id = flow.plan.flow_ids[address]
        state = relay.flows.get(flow_id)
        if state is None or len(state.delivered) == len(progress.delivered_messages):
            return
        for seq, message in state.delivered.items():
            if seq not in progress.delivered_messages:
                progress.delivered_messages[seq] = self.sim.now
                progress.delivered_bytes += len(message)
                if progress.first_delivery_at is None:
                    progress.first_delivery_at = self.sim.now
                progress.last_delivery_at = self.sim.now

    def _flush_setup(self, flow: FlowSetup) -> None:
        for relay_address in flow.graph.relays:
            relay = self.relays.get(relay_address)
            if relay is None or not self.substrate.is_alive(relay_address):
                continue
            flow_id = flow.plan.flow_ids[relay_address]
            self._dispatch_outputs(relay_address, relay.flush_setup(flow_id))

    def _flush_data_burst(
        self, flow: FlowSetup, progress: FlowProgress, seqs: list[int]
    ) -> None:
        """Flush a whole burst: per relay, all of its sequence numbers at once.

        Equivalent to per-seq flushes (each relay draws from its own RNG in
        the same per-relay order), but one relay lookup, one output dispatch
        and one delivery scan per relay instead of one per (relay, seq).
        """
        for relay_address in flow.graph.relays:
            relay = self.relays.get(relay_address)
            if relay is None or not self.substrate.is_alive(relay_address):
                continue
            flow_id = flow.plan.flow_ids[relay_address]
            outputs = relay.flush_data_many(flow_id, seqs)
            self._dispatch_outputs(relay_address, outputs)
            self._record_delivery(relay, flow, progress, relay_address)
        if seqs:
            self._retire(flow, max(seqs))

    def _retire(self, flow: FlowSetup, seq: int) -> None:
        """Apply the retention windows after data message ``seq`` was flushed."""
        if self.seq_retention is not None:
            horizon = seq + 1 - self.seq_retention
            if horizon > 0:
                for relay_address in flow.graph.relays:
                    relay = self.relays.get(relay_address)
                    if relay is None:
                        continue
                    relay.retire_data(flow.plan.flow_ids[relay_address], horizon)
        if self.flow_retention_seconds is not None:
            before = self.sim.now - self.flow_retention_seconds
            if before > 0:
                for relay_address in flow.graph.relays:
                    relay = self.relays.get(relay_address)
                    if relay is not None:
                        relay.garbage_collect(before)
