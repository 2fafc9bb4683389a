"""Simulated overlay node runtime.

:class:`SimulatedOverlayNetwork` combines the event loop
(:class:`~repro.overlay.simulator.EventSimulator`), the network model
(latency, per-connection capacity), per-node CPU accounting, and node
failures into a generic substrate over which protocol adapters run.  The
information-slicing adapter (:class:`SlicingRuntime`) wires the real
:class:`~repro.core.relay.Relay` engines into this substrate; the onion
baselines in :mod:`repro.baselines` provide their own adapters.

The accounting lives on the :class:`OverlayTransport` base class and the
transmit surface on :class:`SimulatedOverlayNetwork`, which the
socket backend (:mod:`repro.overlay.aio`) subclasses: it only carries each
burst over a real connection between its charge and its landing.  So the
adapters run unchanged on either backend, both charge every transmission
to the virtual clock through one method,
:meth:`OverlayTransport._account_batch`, and both run one event loop,
:meth:`EventSimulator.run <repro.overlay.simulator.EventSimulator.run>`.

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
Data packets travel as :class:`~repro.core.packet.PacketBatch` columns from
the source's coding stacks to the destination's decoder.  A burst on one
connection becomes one :meth:`~SimulatedOverlayNetwork.transmit_packets` per chunk
of :data:`DEFAULT_BATCH_CHUNK` packets, cut inside a batch if need be
(per-packet serialisation and CPU *times* are still accounted exactly).  A
chunk joins its receiver's inbox when it is sent: the chunks landing at one
relay at one simulated instant share one heap event
(:meth:`~repro.overlay.simulator.EventSimulator.schedule_keyed`), which runs
after every plain event due at that instant and hands the relay every
packet that landed there, so a chunk costs two heap events per hop (its
inbox's share and the relay's handling), not three.  Blobs (the onion and
Sphinx cells; a single blob, such as an onion setup packet, is a burst of
one) keep a plain landing event per burst
(:meth:`~SimulatedOverlayNetwork.transmit_blobs`).  The per-packet
reference plane — every packet its own transmit, arrival and CPU
event, the relay handling and decoding per packet — lives in
``tests/oracles/dataplane.py``; delivered messages and relay counters are
bit-identical to it under a shared seed
(``tests/test_dataplane.py::test_batched_plane_bit_identical_to_scalar_reference``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.errors import SimulationError
from ..core.packet import AnyPacket, PacketBatch, PacketKind, packet_count, split_items, wire_sizes
from ..core.relay import DEFAULT_SEQ_RETENTION, Relay
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

#: Simulated seconds after which a flow's un-forwardable setup or data state
#: is flushed (timeout-driven padding and regeneration, §4.4.1).
DEFAULT_FLUSH_TIMEOUT = 2.0

#: Idle time (simulated seconds) after which relay flow-table entries are
#: garbage collected (:meth:`Relay.garbage_collect
#: <repro.core.relay.Relay.garbage_collect>`).
DEFAULT_FLOW_RETENTION_SECONDS = 900.0

#: Pipelining quantum of the data plane: bursts ship in chunks of
#: this many packets per connection.  A chunk is one simulator event, so
#: events collapse by up to this factor, while chunks of one hop still
#: overlap the next hop's serialisation — keeping the stage-pipelining
#: behaviour (and therefore the throughput figures) of the per-packet path.
DEFAULT_BATCH_CHUNK = 16


def _queue_dones(
    free: float,
    count: int,
    jobs: Iterable[tuple[float, float]],
    dones: list[float] | None = None,
) -> float:
    """The last completion of a FIFO queue: ``done_i = max(start_i, done_{i-1}) + dur_i``.

    ``count`` ``(start, duration)`` jobs queue behind work that ends at
    ``free``; each completion is appended to ``dones`` if it is given.
    Small batches run the plain recurrence; larger ones use its closed form
    ``done_i = c_i + max(free, max_{j<=i}(start_j - c_{j-1}))`` (``c`` the
    running sum of durations), in one pass.  The closed form's float
    operations and their order are those of its numpy statement
    (``cumsum``, ``maximum.accumulate``, ``maximum``), so the virtual clock
    is the same to the last bit (``tests/test_event_core.py`` keeps that
    statement as the oracle).
    """
    if count < 8:
        for start, duration in jobs:
            free = (start if start > free else free) + duration
            if dones is not None:
                dones.append(free)
        return free
    c = 0.0
    slack = -math.inf
    for start, duration in jobs:
        c += duration
        gap = start - (c - duration)
        if gap > slack:
            slack = gap
        if dones is not None:
            dones.append(c + (slack if slack >= free else free))
    return c + (slack if slack >= free else free)


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
    discrete-event backend (:class:`SimulatedOverlayNetwork`) and the
    socket backend (:class:`~repro.overlay.aio.AioOverlayNetwork`) account
    packets identically; only *how* a packet travels differs.  Subclasses
    provide ``self.sim``, the :class:`~repro.overlay.simulator.EventSimulator`
    the accounting reads the time from.
    """

    sim: EventSimulator

    def __init__(self, network: NetworkModel, connection_bps: float) -> None:
        self.network = network
        self.connection_bps = connection_bps
        self.per_packet_overhead = DEFAULT_PER_PACKET_OVERHEAD
        self.stats = TransmissionStats()
        self._link_free_at: dict[tuple[str, str], float] = {}
        self._cpu_free_at: dict[str, float] = {}
        self._failed: set[str] = set()
        self._inboxes: dict[tuple[str, Callable], Callable[[list], None]] = {}

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (sockets, loops); a no-op for the sim."""

    def __enter__(self) -> "OverlayTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- failures ------------------------------------------------------------------

    def fail_node(self, address: str) -> None:
        """Kill ``address`` now; it stays dead (the clock only moves forward)."""
        self._failed.add(address)

    def is_alive(self, address: str) -> bool:
        return address not in self._failed

    # -- resource accounting ----------------------------------------------------------

    def reserve_cpu(self, address: str, work_seconds: float) -> float:
        """Queue ``work_seconds`` of CPU work on a node; return completion time."""
        start = max(self.sim.now, self._cpu_free_at.get(address, 0.0))
        done = start + work_seconds
        self._cpu_free_at[address] = done
        return done

    def reserve_cpu_sequence(
        self, address: str, starts: Iterable[float], durations: Sequence[float]
    ) -> list[float]:
        """Queue a batch of CPU work items in one pass; returns completion times.

        Item ``i`` begins no earlier than ``starts[i]`` (its packet's arrival
        instant) and no earlier than the CPU becomes free — exactly the
        arithmetic ``count`` individual :meth:`reserve_cpu` calls at those
        instants would produce, collapsed into one bookkeeping pass so a
        whole batch needs a single completion event.
        """
        dones: list[float] = []
        self.reserve_cpu_jobs(address, len(durations), zip(starts, durations), dones)
        return dones

    def reserve_cpu_jobs(
        self,
        address: str,
        count: int,
        jobs: Iterable[tuple[float, float]],
        dones: list[float] | None = None,
    ) -> float:
        """Queue ``count`` ``(start, duration)`` jobs on a node's CPU; returns the last completion.

        Each completion is appended to ``dones`` if it is given.
        """
        free = self._cpu_free_at.get(address, 0.0)
        done = self._cpu_free_at[address] = _queue_dones(free, count, jobs, dones)
        return done

    # -- shared batch arithmetic --------------------------------------------------------

    def _charge(
        self,
        sender: str,
        receiver: str,
        sizes: list[int],
        sender_cpu_seconds: Sequence[float] | None,
    ) -> list[float] | None:
        """Charge a burst to the virtual clock: its arrivals, or ``None`` if nothing leaves.

        Nothing leaves when the burst is empty or its sender is dead (one
        drop per packet).  ``sender_cpu_seconds`` holds one CPU cost per
        packet, validated here, or is ``None`` for none.
        """
        if not sizes:
            return None
        if not self.is_alive(sender):
            self.stats.packets_dropped += len(sizes)
            return None
        cpus = None if sender_cpu_seconds is None else list(sender_cpu_seconds)
        if cpus is not None and len(cpus) != len(sizes):
            raise SimulationError(
                "a burst needs one CPU cost per packet "
                f"({len(cpus)} costs for {len(sizes)} packets)"
            )
        return self._account_batch(sender, receiver, sizes, cpus)

    def _account_batch(
        self, sender: str, receiver: str, sizes: Sequence[int], cpus: Sequence[float] | None
    ) -> list[float]:
        """Reserve sender CPU and the connection for a burst; return arrivals.

        Each packet queues on the sender CPU (its cost, none if ``cpus`` is
        ``None``, plus the fixed per-packet overhead), serialises on the
        (sender, receiver) connection in order, and arrives one propagation
        delay later.  It is the one place either backend charges a
        transmission to the virtual clock, so their clocks and counters agree.
        """
        overhead = self.per_packet_overhead
        ready_times = self.reserve_cpu_sequence(
            sender,
            repeat(self.sim.now),
            [overhead] * len(sizes) if cpus is None else [cpu + overhead for cpu in cpus],
        )
        key = (sender, receiver)
        latency = self.network.latency(sender, receiver)
        scale = 8.0 / self.connection_bps
        link_dones: list[float] = []
        self._link_free_at[key] = _queue_dones(
            self._link_free_at.get(key, 0.0),
            len(sizes),
            zip(ready_times, [size * scale for size in sizes]),
            link_dones,
        )
        self.stats.packets_sent += len(sizes)
        self.stats.bytes_sent += sum(sizes)
        return [done + latency for done in link_dones]

    def _inbox(self, receiver: str, deliver: Callable) -> Callable[[list], None]:
        """The key and drain of ``(receiver, deliver)``'s inbox: ``_land``,
        which hands the inbox's packets to ``deliver`` or drops them at a
        dead receiver, bound to the pair.  It is kept for the transport's
        life, so a caller passes one ``deliver`` per receiver, not one per call."""
        inbox = self._inboxes.get((receiver, deliver))
        if inbox is None:
            inbox = self._inboxes[receiver, deliver] = partial(self._land, receiver, deliver)
        return inbox


class SimulatedOverlayNetwork(OverlayTransport):
    """Discrete-event transport substrate: everything runs on a virtual clock.

    A burst is charged to the clock when it is sent and handed to
    :meth:`_send`; what that returns is what travels, and :meth:`_receive`
    turns it back into the items its landing delivers.  Here both return
    what they are given, so ``deliver`` receives the originals; the socket
    backend (:class:`~repro.overlay.aio.AioOverlayNetwork`) overrides the
    two to carry the burst over a real connection.

    Link and CPU capacity are reserved when a burst is submitted (competing
    traffic submitted later queues behind the whole burst), and a sender
    failing after submission does not truncate it.  Neither changes any
    experiment that fails nodes between phases, which is how churn is
    modelled.
    """

    def __init__(self, network: NetworkModel, connection_bps: float) -> None:
        super().__init__(network, connection_bps)
        self.sim = EventSimulator()

    # -- transmission -------------------------------------------------------------------

    def transmit_packets(
        self,
        sender: str,
        receiver: str,
        packets: list[AnyPacket],
        deliver: Callable[[list[AnyPacket], list[float]], None],
        sender_cpu_seconds: Sequence[float] | None = None,
    ) -> None:
        """Send packets on one connection into the receiver's inbox.

        The burst is accounted now (:meth:`_account_batch`) and joins the
        inbox of ``(receiver, deliver)`` at its last packet's arrival
        instant.  ``deliver(packets, arrivals)`` is called once per
        ``(receiver, deliver, instant)``, after every plain event due at
        that instant, with every packet that landed there in the order it
        was sent and one arrival time per packet; if the receiver is dead
        by then, those packets are dropped (one drop each) instead.
        """
        sizes = wire_sizes(packets)
        arrivals = self._charge(sender, receiver, sizes, sender_cpu_seconds)
        if arrivals is not None:
            carried = self._send(sender, receiver, packets, sizes, True)
            inbox = self._inbox(receiver, deliver)
            self.sim.schedule_keyed(inbox, arrivals[-1], (carried, arrivals), inbox)

    def transmit_blobs(
        self,
        sender: str,
        receiver: str,
        blobs: list[bytes],
        deliver: Callable[[list[bytes], list[float]], None],
        sender_cpu_seconds: Sequence[float] | None = None,
    ) -> None:
        """Send opaque cells on one connection with one landing event.

        Per-cell times are accounted by :meth:`_account_batch` (sender CPU
        queue, in-order serialisation on the connection, one propagation
        delay), but the whole burst lands in a *single* plain event at its
        last cell's arrival instant: ``deliver(blobs, arrivals)`` receives
        every cell's arrival time so the receiver can charge its CPU
        faithfully, or the cells are dropped at a dead receiver.
        """
        sizes = [len(blob) for blob in blobs]
        arrivals = self._charge(sender, receiver, sizes, sender_cpu_seconds)
        if arrivals is not None:
            carried = self._send(sender, receiver, blobs, sizes, False)
            self.sim.schedule_at(
                arrivals[-1], partial(self._land, receiver, deliver, [(carried, arrivals)])
            )

    def transmit_blob(
        self,
        sender: str,
        receiver: str,
        blob: bytes,
        deliver: Callable[[bytes], None],
        sender_cpu_seconds: float = 0.0,
    ) -> None:
        """:meth:`transmit_blobs` of one cell; ``deliver`` receives the cell."""
        self.transmit_blobs(
            sender,
            receiver,
            [blob],
            lambda blobs, _arrivals: deliver(blobs[0]),
            sender_cpu_seconds=[sender_cpu_seconds],
        )

    def _send(self, sender: str, receiver: str, items: list, sizes: list[int], packets: bool):
        """What carries a charged burst (``packets``: packets, else cells) to its landing."""
        return items

    def _receive(self, carried) -> list:
        """The items a landing delivers from what :meth:`_send` returned."""
        return carried

    def _land(
        self,
        receiver: str,
        deliver: Callable[[list, list[float]], None],
        items: list[tuple[object, list[float]]],
    ) -> None:
        """A landing: deliver its ``(carried, arrivals)`` items, or drop them at a dead receiver."""
        if not self.is_alive(receiver):
            self.stats.packets_dropped += sum(len(arrivals) for _carried, arrivals in items)
            return
        receive = self._receive
        delivered: list = []
        times: list[float] = []
        for carried, arrivals in items:
            delivered += receive(carried)
            times += arrivals
        deliver(delivered, times)


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

    ``substrate`` is the shared transport substrate.  ``rng`` is stored as
    ``self.rng`` and never read: every relay draws from its own generator,
    seeded by ``sha256(address)`` (see :meth:`add_relay`); the parameter
    stays because existing callers pass it.  The flush timeout, the setup
    daemon cost, the data-plane chunk and both retention windows are the
    module constants :data:`DEFAULT_FLUSH_TIMEOUT`,
    :data:`DEFAULT_SETUP_PROCESSING_OVERHEAD`, :data:`DEFAULT_BATCH_CHUNK`,
    :data:`DEFAULT_SEQ_RETENTION <repro.core.relay.DEFAULT_SEQ_RETENTION>` and
    :data:`DEFAULT_FLOW_RETENTION_SECONDS`, read when they are used.
    """

    def __init__(
        self, substrate: OverlayTransport, rng: np.random.Generator | None = None
    ) -> None:
        self.substrate = substrate
        self.rng = np.random.default_rng() if rng is None else rng
        self.relays: dict[str, Relay] = {}
        self.progress: dict[int, FlowProgress] = {}
        self._flows_by_id: dict[int, tuple[FlowSetup, FlowProgress]] = {}
        self._deliver_to: dict[str, Callable[[list[AnyPacket], list[float]], None]] = {}

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
        self.progress[id(flow)] = progress
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
        self.sim.schedule(DEFAULT_FLUSH_TIMEOUT, lambda: self._flush_setup(flow))
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
        burst ships as one :meth:`_transmit_packets` per connection (one
        packet per message each), and is covered by a single flush timer.
        """
        if not messages:
            return
        batches = source.make_data_packets_batch(flow, messages)
        progress = self.progress[id(flow)]
        source_resources = self.substrate.network.resources(source.address)
        cpus = [
            source_resources.coding_time(max(len(message) // max(flow.d, 1), 1), flow.d)
            for message in messages
        ]
        per_connection: dict[tuple[str, str], list[PacketBatch]] = {}
        for batch in batches:
            key = (batch.source_address, batch.destination_address)
            per_connection.setdefault(key, []).append(batch)
        for (sender, receiver), items in per_connection.items():
            self._transmit_packets(sender, receiver, items, cpus)
        seqs = [seq for batch in next(iter(per_connection.values())) for seq in batch.seqs]
        self.sim.schedule(
            DEFAULT_FLUSH_TIMEOUT,
            lambda: self._flush_data_burst(flow, progress, seqs),
        )

    # -- data plane ------------------------------------------------------------------------

    def _transmit_packets(
        self,
        sender: str,
        receiver: str,
        packets: list[AnyPacket],
        sender_cpus: list[float] | None = None,
    ) -> None:
        """Ship a same-connection burst into the receiver's inbox.

        ``sender_cpus`` holds one sender CPU cost per packet, or is ``None``
        for a forward, which costs its sender only the per-packet overhead.
        Bursts larger than :data:`DEFAULT_BATCH_CHUNK` packets ship as
        consecutive chunks, cut inside a batch if need be, so one hop's
        chunks overlap the next hop's serialisation (stage pipelining)
        instead of the whole burst marching stage by stage.
        """
        deliver = self._deliver_to.get(receiver)
        if deliver is None:
            deliver = self._deliver_to[receiver] = partial(self._process_inbox, receiver)
        count = sum(map(packet_count, packets)) if sender_cpus is None else len(sender_cpus)
        chunk = DEFAULT_BATCH_CHUNK
        for start, piece in zip(range(0, count, chunk),
                                split_items(packets, range(chunk, count, chunk))):
            cpus = None if sender_cpus is None else sender_cpus[start : start + chunk]
            self.substrate.transmit_packets(
                sender, receiver, piece, deliver, sender_cpu_seconds=cpus
            )

    def _process_inbox(
        self, receiver: str, packets: list[AnyPacket], arrivals: list[float]
    ) -> None:
        """Charge receiver CPU for every packet of an inbox; then process them once."""
        relay = self.relays.get(receiver)
        if relay is None:
            return
        resources = self.substrate.network.resources(receiver)
        done = self.substrate.reserve_cpu_jobs(
            receiver,
            len(arrivals),
            zip(
                arrivals,
                chain.from_iterable(
                    repeat(self._packet_cpu_cost(item, resources), packet_count(item))
                    for item in packets
                ),
            ),
        )
        self.sim.schedule_at(done, lambda: self._handle_batch(receiver, packets))

    def _packet_cpu_cost(self, packet: AnyPacket, resources) -> float:
        """CPU seconds to handle one packet (one row of a batch)."""
        if type(packet) is PacketBatch:
            payload_bytes = packet.payloads.shape[1]
        else:
            payload_bytes = sum(block.payload.shape[0] for block in packet.slices)
        cost = resources.coding_time(payload_bytes, packet.d)
        if packet.kind == PacketKind.SETUP:
            cost += DEFAULT_SETUP_PROCESSING_OVERHEAD * resources.load_factor
        return cost + self.substrate.per_packet_overhead

    def _handle_batch(self, receiver: str, packets: list[AnyPacket]) -> None:
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
            # A recorded decode time never changes (``setdefault``), so a
            # receiver that has one needs neither decode check.
            tracked[packet.flow_id] = (
                flow,
                progress,
                receiver in progress.relay_decode_times
                or self._relay_decoded(relay, flow, receiver),
            )
        outputs = relay.handle_packets(packets, now=self.sim.now)
        for flow, progress, decoded_before in tracked.values():
            if not decoded_before and self._relay_decoded(relay, flow, receiver):
                progress.relay_decode_times.setdefault(receiver, self.sim.now)
            self._record_delivery(relay, flow, progress, receiver)
        self._dispatch_outputs(receiver, outputs)

    def _dispatch_outputs(self, sender: str, outputs: list[AnyPacket]) -> None:
        if not outputs:
            return
        per_receiver: dict[str, list[AnyPacket]] = {}
        for packet in outputs:
            per_receiver.setdefault(packet.destination_address, []).append(packet)
        for receiver, packets in per_receiver.items():
            self._transmit_packets(sender, receiver, packets)

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
        state = relay.flows.get(flow.plan.flow_ids[address])
        new = len(state.delivered) - len(progress.delivered_messages) if state else 0
        if not new:
            return
        # Both dicts grow in the same order, so the new deliveries are the
        # tail; a flow entry collected and rebuilt since holds fewer.
        items = state.delivered.items()
        for seq, message in list(islice(reversed(items), new))[::-1] if new > 0 else items:
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
        horizon = seq + 1 - DEFAULT_SEQ_RETENTION
        if horizon > 0:
            for relay_address in flow.graph.relays:
                relay = self.relays.get(relay_address)
                if relay is not None:
                    relay.retire_data(flow.plan.flow_ids[relay_address], horizon)
        before = self.sim.now - DEFAULT_FLOW_RETENTION_SECONDS
        if before > 0:
            for relay_address in flow.graph.relays:
                relay = self.relays.get(relay_address)
                if relay is not None:
                    relay.garbage_collect(before)
