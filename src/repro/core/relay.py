"""The overlay relay daemon (§4.3.5, §4.3.6, §7.1).

A :class:`Relay` is the per-node protocol engine.  It keeps a flow table
keyed on flow-id; for each flow it collects setup packets from its parents,
decodes its own routing information (§4.3.5), forwards the remaining slices
to its children as instructed by its slice-map (§4.3.6), and relays data
slices according to its data-map (§4.3.7), regenerating lost redundancy with
network coding when a parent has failed (§4.4.1).

The relay is transport-agnostic: :meth:`handle_packets` returns the packets
to transmit, and the overlay runtime
(:class:`~repro.overlay.node.SlicingRuntime`, over the discrete-event
simulator or the socket backend) decides how and when to deliver
them.  Timeout-driven behaviour (forwarding despite missing parents) is
triggered by the runtime calling :meth:`flush_setup` /
:meth:`flush_data_many`.

A setup forward first lays out every child's slots from the slice-map and
the parents heard, then fills the holes — random entries and slots of
parents that never arrived — from one
:func:`~repro.core.packet.random_padding_slices` draw.  That draw is the
stream of one draw per hole in slot order
(:func:`~repro.core.gf.uint8_blocks`), so the padding bytes and every later
draw of the relay's generator are what they were slot by slot.

Decoding
--------
Data arrives as :class:`~repro.core.packet.PacketBatch` columns (one flow and
lane each); each batch goes whole through one run handler, which stores it in
the flow's :class:`~repro.core.flow_decoder.FlowDecoder` by reference (on
sockets a view of the received frame) until its seqs retire, and forwards
row selections of it.  The store also keeps the flow's forward and flush
markers, as masks over its seqs, so a batch or a burst is tested and marked
with a few integer operations.  A row more than :data:`DEFAULT_SEQ_RETENTION`
outside the seqs a flow holds or has flushed is refused: the masks are as
wide as that span, and a conforming source's seqs reach a relay in order.
Deliveries are deferred to the end of each :meth:`handle_packets` call and
decoded together through the batched Gauss–Jordan kernels, as is the
*setup-phase* decode of a relay's own routing slices (§4.3.5,
:func:`~repro.core.flow_decoder.decode_setup_payload`).  The per-packet
reference — one :func:`~repro.core.integrity.robust_decode` the moment the
``d``-th slice arrives, as the paper's prose reads — is ``ScalarRelay`` in
``tests/oracles/dataplane.py``; matrix inverses are unique and irregular cases
fall back to ``robust_decode``, so the two are bit-identical
(``tests/test_dataplane.py::test_batched_plane_bit_identical_to_scalar_reference``,
``tests/test_setup_decode.py``).

Regeneration (§4.4.1) is one pass per burst: :meth:`Relay.flush_data_many`
has the flow's decoder find, by mask, every (seq, child) pair to feed
(``FlowDecoder.feed_short``), draws all their weights in one
:func:`~repro.core.gf.uint8_draws` call — the stream of one
``SliceCoder.recombine`` per pair — and combines them in one
``FlowDecoder.recombine_many`` product per plane (reference:
``tests/oracles/dataplane.py::reference_flush_data``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..crypto.symmetric import StreamCipher
from .coder import CodedBlock, SliceCoder
from .errors import CodingError, InsufficientSlicesError, ProtocolError
from .flow_decoder import FlowDecoder, decode_setup_payload
from .gf import GF, GF256, uint8_draws
from .node_info import NodeInfo
from .packet import AnyPacket, Packet, PacketBatch, PacketKind, packet_count, random_padding_slices
from .source import data_nonce

#: Per-flow retention window (sequence numbers) for relay data state: when
#: data message ``seq`` is flushed, the runtime retires relay state for
#: sequence numbers below ``seq + 1 - DEFAULT_SEQ_RETENTION`` (stored slices,
#: forward and flush markers), bounding relay memory on long-running flows.
#: A relay refuses a data row more than this far outside the seqs it holds or
#: has flushed for the flow, so no row widens the flow's masks by more.
DEFAULT_SEQ_RETENTION = 1024


@dataclass
class FlowState:
    """Per-flow state kept by a relay (the paper's flow-table entry)."""

    flow_id: int
    d: int
    coding_field: GF256 | None = None
    setup_packets: dict[int, Packet] = field(default_factory=dict)
    info: NodeInfo | None = None
    setup_forwarded: bool = False
    pending_data: list[PacketBatch] = field(default_factory=list)
    data: FlowDecoder = field(init=False)
    delivered: dict[int, bytes] = field(default_factory=dict)
    last_activity: float = 0.0
    retired_before: int = 0
    #: Data rows refused for lying outside the retention window.
    refused_rows: int = 0

    def __post_init__(self) -> None:
        self.data = FlowDecoder(self.d, field=self.coding_field)

    @property
    def decoded(self) -> bool:
        return self.info is not None

    def own_setup_blocks(self) -> list[CodedBlock]:
        """The slices addressed to this node (slot 0 of every setup packet)."""
        return [packet.own_slice for packet in self.setup_packets.values()]

    def retire_before(self, before_seq: int) -> int:
        """Drop per-seq data state older than ``before_seq``; returns seqs dropped."""
        if before_seq <= self.retired_before:
            return 0
        self.retired_before = before_seq
        return self.data.retire_before(before_seq)

    def markers(self) -> tuple[set[tuple[int, int]], set[int]]:
        """The ``(seq, child index)`` pairs forwarded and the seqs flushed."""
        return self.data.markers()


@dataclass
class RelayStats:
    """Counters useful for experiments and debugging."""

    packets_received: int = 0
    packets_sent: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    flows_decoded: int = 0
    messages_delivered: int = 0
    regenerated_slices: int = 0


class Relay:
    """Protocol engine for one overlay node.

    Parameters
    ----------
    address:
        This node's overlay address.
    rng:
        Randomness source for padding and network-coding coefficients.
    regenerate_redundancy:
        Enable the network-coding regeneration of §4.4.1.  Disabling it gives
        the plain "erasure-coding only" behaviour used by the ablation bench.
    field:
        The GF(2^8) implementation every coder and decoder of this relay
        uses; defaults to the shared :data:`~repro.core.gf.GF`.
    """

    def __init__(
        self,
        address: str,
        rng: np.random.Generator | None = None,
        regenerate_redundancy: bool = True,
        field: GF256 | None = None,
    ) -> None:
        self.address = address
        self.rng = np.random.default_rng() if rng is None else rng
        self.regenerate_redundancy = regenerate_redundancy
        self.field = GF if field is None else field
        self.flows: dict[int, FlowState] = {}
        self.stats = RelayStats()

    # -- flow-table helpers ----------------------------------------------------------

    def _state_for(self, packet: Packet) -> FlowState:
        state = self.flows.get(packet.flow_id)
        if state is None:
            state = FlowState(
                flow_id=packet.flow_id, d=packet.d, coding_field=self.field
            )
            self.flows[packet.flow_id] = state
        return state

    def garbage_collect(self, before: float) -> int:
        """Drop flow entries idle since before ``before``; returns count dropped."""
        stale = [
            flow_id
            for flow_id, state in self.flows.items()
            if state.last_activity < before
        ]
        for flow_id in stale:
            del self.flows[flow_id]
        return len(stale)

    def retire_data(self, flow_id: int, before_seq: int) -> int:
        """Drop a flow's per-seq data state older than ``before_seq``.

        This is the retention window of a long-running flow: slices, forward
        markers and flush markers for sequence numbers below ``before_seq``
        are forgotten (the flow entry itself and delivered plaintexts stay).
        Returns the number of sequence numbers retired.
        """
        state = self.flows.get(flow_id)
        if state is None:
            return 0
        return state.retire_before(before_seq)

    def delivered_messages(self, flow_id: int) -> dict[int, bytes]:
        """Messages this node has decoded as the flow's destination."""
        state = self.flows.get(flow_id)
        if state is None:
            return {}
        return dict(state.delivered)

    # -- packet handling ---------------------------------------------------------------

    def handle_packets(self, packets: list[AnyPacket], now: float = 0.0) -> list[AnyPacket]:
        """Process incoming setup packets and data batches; returns what to transmit.

        Items are processed in order; a data batch (a scalar data
        :class:`Packet` is a batch of one) goes whole through one run
        handler, and all messages that become deliverable during the call
        are decoded together in one batched kernel pass.
        """
        outgoing: list[AnyPacket] = []
        pending: list[tuple[FlowState, list[int]]] = []
        self.stats.packets_received += sum(map(packet_count, packets))
        self.stats.bytes_received += sum(item.size_bytes() for item in packets)
        for item in packets:
            state = self._state_for(item)
            state.last_activity = now
            if item.kind == PacketKind.SETUP:
                outgoing.extend(self._handle_setup(state, item, pending))
                continue
            batch = item if type(item) is PacketBatch else PacketBatch.of(item)
            if state.decoded:
                outgoing.extend(self._handle_data_run(state, batch, pending))
            else:
                state.pending_data.append(batch)
        if pending:
            self._deliver_pending(pending)
        self._account_sent(outgoing)
        return outgoing

    def _account_sent(self, items: list[AnyPacket]) -> None:
        self.stats.packets_sent += sum(map(packet_count, items))
        self.stats.bytes_sent += sum(item.size_bytes() for item in items)

    # -- setup phase -------------------------------------------------------------------

    def _handle_setup(
        self, state: FlowState, packet: Packet, pending: list[tuple[FlowState, list[int]]]
    ) -> list[Packet]:
        if packet.lane in state.setup_packets:
            return []
        state.setup_packets[packet.lane] = packet
        if not state.decoded:
            self._try_decode_info(state)
        outgoing: list[Packet] = []
        if (
            state.decoded
            and not state.setup_forwarded
            and len(state.setup_packets) >= state.info.num_parents
        ):
            outgoing.extend(self._build_setup_forwards(state))
        # Data batches may have raced ahead of the setup decode.
        if state.decoded and state.pending_data:
            buffered, state.pending_data = state.pending_data, []
            for batch in buffered:
                outgoing.extend(self._handle_data_run(state, batch, pending))
        return outgoing

    def _try_decode_info(self, state: FlowState) -> None:
        blocks = state.own_setup_blocks()
        if len(blocks) < state.d:
            return
        coder = SliceCoder(state.d, field=self.field)
        try:
            payload = decode_setup_payload(coder, blocks, field=self.field)
            state.info = NodeInfo.unpack(payload)
            self.stats.flows_decoded += 1
        except (InsufficientSlicesError, CodingError, ProtocolError):
            state.info = None

    def _build_setup_forwards(self, state: FlowState) -> list[Packet]:
        info = state.info
        assert info is not None
        state.setup_forwarded = True
        if not info.next_hop_addresses:
            return []
        sample = next(iter(state.setup_packets.values())).own_slice
        payload_bytes = int(sample.payload.shape[0])
        # Each child's slots in slice-map order; None marks a hole (a random
        # entry or a missing parent) that one padding draw fills below.
        children: list[list[CodedBlock | None]] = []
        for child_index in range(len(info.next_hop_addresses)):
            slots: list[CodedBlock | None] = []
            for entry in info.slice_map.for_child(child_index):
                block = None
                if not entry.is_random:
                    incoming = state.setup_packets.get(entry.parent_index)
                    if incoming is not None and entry.slot_index < len(incoming.slices):
                        block = incoming.slices[entry.slot_index]
                slots.append(block)
            children.append(slots)
        holes = sum(slots.count(None) for slots in children)
        padding = iter(random_padding_slices(holes, state.d, payload_bytes, self.rng))
        return [
            Packet(
                flow_id=child_flow,
                kind=PacketKind.SETUP,
                slices=[next(padding) if block is None else block for block in slots],
                d=state.d,
                lane=info.lane,
                seq=0,
                source_address=self.address,
                destination_address=child,
            )
            for slots, child, child_flow in zip(
                children, info.next_hop_addresses, info.next_hop_flow_ids
            )
        ]

    def flush_setup(self, flow_id: int) -> list[Packet]:
        """Forward setup slices now, padding slots whose parents never arrived.

        Called by the overlay on a timeout when churn has made some parents
        fail.  Returns an empty list when this node could not decode its own
        information (fewer than ``d`` of its slices arrived), in which case
        the flow is dead at this node.
        """
        state = self.flows.get(flow_id)
        if state is None or state.setup_forwarded:
            return []
        if not state.decoded:
            self._try_decode_info(state)
        if not state.decoded:
            return []
        outgoing = self._build_setup_forwards(state)
        self._account_sent(outgoing)
        return outgoing

    # -- data phase --------------------------------------------------------------------

    def _handle_data_run(
        self,
        state: FlowState,
        batch: PacketBatch,
        pending: list[tuple[FlowState, list[int]]],
    ) -> list[PacketBatch]:
        """Store, deliver and forward a data batch on a decoded flow (§4.3.7).

        Equivalent to handling its packets one by one in order: each
        accepted slice is queued for delivery at the receiver and goes on to
        every child whose data-map names the batch's lane, once per (seq,
        child).  The whole batch is tested and marked against each child's
        forwarded mask at once; a child's forward is a row selection of
        ``batch``, sharing its columns when every row goes on.  Rows outside
        the retention window are refused first and counted.
        """
        info = state.info
        assert info is not None
        data = state.data
        rows = data.within(batch.seqs, DEFAULT_SEQ_RETENTION)
        if rows is not None:
            state.refused_rows += len(batch) - len(rows)
            if not rows:
                return []
            batch = batch.forward(rows, batch.flow_id, batch.lane, batch.source_address,
                                  batch.destination_address)
        accepted = data.add_run(batch.lane, batch)
        if not accepted:
            return []
        seqs = batch.seqs
        stored = seqs if len(accepted) == len(seqs) else [seqs[row] for row in accepted]
        if info.is_receiver:
            pending.append((state, stored))
        mask = data.seq_mask(stored)
        outgoing: list[PacketBatch] = []
        for child_index, (child, child_flow) in enumerate(
            zip(info.next_hop_addresses, info.next_hop_flow_ids)
        ):
            if info.data_map.for_child(child_index) != batch.lane:
                continue
            new = data.mark_forwarded(child_index, mask)
            if not new:
                continue
            if new != mask:
                new_seqs = set(data.mask_seqs(new))
                rows = [row for row in accepted if seqs[row] in new_seqs]
            else:
                rows = accepted
            outgoing.append(batch.forward(rows, flow_id=child_flow, lane=info.lane,
                                          source_address=self.address, destination_address=child))
        return outgoing

    def flush_data(self, flow_id: int, seq: int) -> list[PacketBatch]:
        """Regenerate and forward slices for children whose parent slice is lost.

        Implements §4.4.1 for one data message: ``flush_data_many(flow_id,
        [seq])``.  The package flushes whole bursts through
        :meth:`flush_data_many`; this entry point stays because
        ``perfbench/spans.py`` wraps it by name.
        """
        return self.flush_data_many(flow_id, [seq])

    def flush_data_many(self, flow_id: int, seqs: list[int]) -> list[PacketBatch]:
        """Regenerate and forward, for a burst, slices lost upstream (§4.4.1).

        For every seq holding at least ``d`` slices in its plane (extras of
        a clashing length are left out), every child not yet fed gets a
        fresh random combination of them.  The decoder plans the pairs on
        its masks; their weights, in seq-then-child order, come from one
        :func:`~repro.core.gf.uint8_draws` call that draws what one
        ``SliceCoder.recombine`` per pair would, an all-zero row redrawn
        where ``recombine`` redraws it.  Each child gets one batch per plane
        run of its replacements, in seq order, so its connection carries
        what one packet per replacement would.  Without
        ``regenerate_redundancy`` a lost slice stays lost.
        """
        state = self.flows.get(flow_id)
        if state is None or not state.decoded:
            return []
        info = state.info
        assert info is not None
        data = state.data
        fresh = data.mark_flushed(data.seq_mask(seqs))
        if not fresh or not self.regenerate_redundancy:
            return []
        pair_seqs, pair_children, counts = data.feed_short(
            fresh, seqs, len(info.next_hop_addresses)
        )
        if not counts.size:
            return []
        weights = np.zeros((counts.size, counts.max()), dtype=np.uint8)
        weights[np.arange(weights.shape[1]) < counts[:, None]] = uint8_draws(
            self.rng, counts, redraw_zero=True
        )[0]
        self.stats.regenerated_slices += counts.size
        # Each replacement's plane and row among that plane's products.
        plane_of, row_of = np.empty_like(counts), np.empty_like(counts)
        combined = data.recombine_many(pair_seqs, weights)
        for plane, (positions, _) in enumerate(combined):
            plane_of[positions], row_of[positions] = plane, np.arange(positions.size)
        outgoing: list[PacketBatch] = []
        for child_index in dict.fromkeys(pair_children.tolist()):
            positions = np.flatnonzero(pair_children == child_index)
            # One batch per run of one plane, whose rows share one width.
            cuts = np.flatnonzero(np.diff(plane_of[positions])) + 1
            for run in np.split(positions, cuts):
                products = combined[plane_of[run[0]]][1][row_of[run]]
                products.flags.writeable = False
                outgoing.append(PacketBatch(
                    info.next_hop_flow_ids[child_index], state.d, info.lane,
                    pair_seqs[run].tolist(), products[:, : state.d], products[:, state.d :],
                    self.address, info.next_hop_addresses[child_index],
                ))
        self._account_sent(outgoing)
        return outgoing

    def _deliver_pending(self, pending: list[tuple[FlowState, list[int]]]) -> None:
        """Batched delivery decode for every (flow, seq) touched by a batch."""
        per_state: dict[int, tuple[FlowState, int]] = {}
        for state, seqs in pending:
            # Every seq is stored, so no mask here moves the base.
            mask = state.data.seq_mask(seqs)
            held = per_state.get(id(state))
            per_state[id(state)] = (state, mask if held is None else held[1] | mask)
        for state, mask in per_state.values():
            ready = [
                seq for seq in state.data.mask_seqs(state.data.ready(mask))
                if seq not in state.delivered
            ]
            decoded = state.data.decode_many(ready) if ready else {}
            if not decoded:
                continue
            cipher = StreamCipher(state.info.secret_key)
            for seq in ready:
                ciphertext = decoded.get(seq)
                if ciphertext is None:
                    continue
                state.delivered[seq] = cipher.decrypt(ciphertext, data_nonce(seq))
                self.stats.messages_delivered += 1
