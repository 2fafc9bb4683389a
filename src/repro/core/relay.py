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
simulator or the asyncio socket backend) decides how and when to deliver
them.  Timeout-driven behaviour (forwarding despite missing parents) is
triggered by the runtime calling :meth:`flush_setup` /
:meth:`flush_data_many`.

Decoding
--------
Per-(flow, seq) data slices live in a :class:`~repro.core.flow_decoder.FlowDecoder`
(array-native accumulation).  Deliveries are deferred to the end of each
:meth:`handle_packets` call and decoded together through the batched
Gauss–Jordan kernels, and the *setup-phase* decode of a relay's own routing
slices (§4.3.5) goes through the same kernel
(:func:`~repro.core.flow_decoder.decode_setup_payload`).  The per-message
reference — one :func:`~repro.core.integrity.robust_decode` the moment the
``d``-th slice arrives, as the paper's prose reads — lives in
``tests/oracles/dataplane.py``; matrix inverses are unique and irregular
cases fall back to ``robust_decode``, so the two are bit-identical
(``tests/test_dataplane.py::test_batched_plane_bit_identical_to_scalar_reference``,
``tests/test_setup_decode.py``).

Regeneration (§4.4.1) is one pass per burst: :meth:`Relay.flush_data_many`
draws each replacement's weights as ``SliceCoder.recombine`` would and
combines them all in one ``FlowDecoder.recombine_many`` product (reference:
``tests/oracles/dataplane.py::reference_flush_data``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..crypto.symmetric import StreamCipher
from .coder import CodedBlock, SliceCoder
from .errors import CodingError, InsufficientSlicesError, ProtocolError
from .flow_decoder import FlowDecoder, decode_setup_payload
from .gf import GF, GF256
from .node_info import NodeInfo
from .packet import Packet, PacketKind, random_padding_slice
from .source import data_nonce


@dataclass
class FlowState:
    """Per-flow state kept by a relay (the paper's flow-table entry)."""

    flow_id: int
    d: int
    coding_field: GF256 | None = None
    setup_packets: dict[int, Packet] = field(default_factory=dict)
    info: NodeInfo | None = None
    setup_forwarded: bool = False
    pending_data: list[Packet] = field(default_factory=list)
    data: FlowDecoder = field(init=False)
    data_forwarded: set[tuple[int, int]] = field(default_factory=set)
    data_flushed: set[int] = field(default_factory=set)
    delivered: dict[int, bytes] = field(default_factory=dict)
    last_activity: float = 0.0
    retired_before: int = 0

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
        dropped = self.data.retire_before(before_seq)
        self.data_forwarded = {
            (seq, child) for seq, child in self.data_forwarded if seq >= before_seq
        }
        self.data_flushed = {seq for seq in self.data_flushed if seq >= before_seq}
        return dropped


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
    auto_forward_setup:
        When True (default), setup slices are forwarded as soon as packets
        from all ``d'`` parents have arrived.  The overlay can also force
        forwarding earlier via :meth:`flush_setup` (e.g. on a timeout).
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
        auto_forward_setup: bool = True,
        regenerate_redundancy: bool = True,
        field: GF256 | None = None,
    ) -> None:
        self.address = address
        self.rng = np.random.default_rng() if rng is None else rng
        self.auto_forward_setup = auto_forward_setup
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

    def is_receiver(self, flow_id: int) -> bool:
        state = self.flows.get(flow_id)
        return bool(state and state.info and state.info.is_receiver)

    def delivered_messages(self, flow_id: int) -> dict[int, bytes]:
        """Messages this node has decoded as the flow's destination."""
        state = self.flows.get(flow_id)
        if state is None:
            return {}
        return dict(state.delivered)

    # -- packet handling ---------------------------------------------------------------

    def handle_packet(self, packet: Packet, now: float = 0.0) -> list[Packet]:
        """Process one incoming packet; returns the packets to transmit."""
        return self.handle_packets([packet], now=now)

    def handle_packets(self, packets: list[Packet], now: float = 0.0) -> list[Packet]:
        """Process a batch of incoming packets; returns the packets to transmit.

        Packets are processed in order, so a batch behaves exactly like the
        equivalent sequence of :meth:`handle_packet` calls — except that all
        messages that become deliverable during the batch are decoded
        together in one batched kernel pass.
        """
        outgoing: list[Packet] = []
        pending: list[tuple[FlowState, int]] = []
        self.stats.packets_received += len(packets)
        self.stats.bytes_received += sum(p.size_bytes() for p in packets)
        index, total = 0, len(packets)
        while index < total:
            packet = packets[index]
            state = self._state_for(packet)
            state.last_activity = now
            if packet.kind == PacketKind.SETUP:
                outgoing.extend(self._handle_setup(state, packet, pending))
            elif packet.kind == PacketKind.DATA:
                if state.decoded:
                    # Consume the whole same-connection run (one flow, one
                    # lane, consecutive data packets) in one pass.
                    run = index + 1
                    while (
                        run < total
                        and packets[run].kind == PacketKind.DATA
                        and packets[run].flow_id == packet.flow_id
                        and packets[run].lane == packet.lane
                    ):
                        run += 1
                    outgoing.extend(
                        self._handle_data_run(
                            state, packet.lane, packets[index:run], pending
                        )
                    )
                    index = run
                    continue
                outgoing.extend(self._handle_data(state, packet, pending))
            else:  # pragma: no cover - PacketKind is a closed enum
                raise ProtocolError(f"unknown packet kind {packet.kind}")
            index += 1
        if pending:
            self._deliver_pending(pending)
        self._account_sent(outgoing)
        return outgoing

    def _account_sent(self, packets: list[Packet]) -> None:
        self.stats.packets_sent += len(packets)
        self.stats.bytes_sent += sum(p.size_bytes() for p in packets)

    # -- setup phase -------------------------------------------------------------------

    def _handle_setup(
        self, state: FlowState, packet: Packet, pending: list[tuple[FlowState, int]]
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
            and self.auto_forward_setup
            and len(state.setup_packets) >= state.info.num_parents
        ):
            outgoing.extend(self._build_setup_forwards(state))
        # Data packets may have raced ahead of the setup decode.
        if state.decoded and state.pending_data:
            buffered, state.pending_data = state.pending_data, []
            for data_packet in buffered:
                outgoing.extend(self._handle_data(state, data_packet, pending))
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
        outgoing: list[Packet] = []
        for child_index, (child, child_flow) in enumerate(
            zip(info.next_hop_addresses, info.next_hop_flow_ids)
        ):
            slices: list[CodedBlock] = []
            for entry in info.slice_map.for_child(child_index):
                block = None
                if not entry.is_random:
                    incoming = state.setup_packets.get(entry.parent_index)
                    if incoming is not None and entry.slot_index < len(incoming.slices):
                        block = incoming.slices[entry.slot_index]
                if block is None:
                    block = random_padding_slice(state.d, payload_bytes, self.rng)
                slices.append(block)
            outgoing.append(
                Packet(
                    flow_id=child_flow,
                    kind=PacketKind.SETUP,
                    slices=slices,
                    d=state.d,
                    lane=info.lane,
                    seq=0,
                    source_address=self.address,
                    destination_address=child,
                )
            )
        return outgoing

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

    def _handle_data(
        self, state: FlowState, packet: Packet, pending: list[tuple[FlowState, int]]
    ) -> list[Packet]:
        if not state.decoded:
            state.pending_data.append(packet)
            return []
        info = state.info
        assert info is not None
        if not state.data.add(packet.seq, packet.lane, packet.own_slice):
            return []
        block = packet.own_slice
        if info.is_receiver:
            pending.append((state, packet.seq))
        outgoing: list[Packet] = []
        for child_index, (child, child_flow) in enumerate(
            zip(info.next_hop_addresses, info.next_hop_flow_ids)
        ):
            if info.data_map.for_child(child_index) != packet.lane:
                continue
            if (packet.seq, child_index) in state.data_forwarded:
                continue
            state.data_forwarded.add((packet.seq, child_index))
            outgoing.append(
                Packet(
                    flow_id=child_flow,
                    kind=PacketKind.DATA,
                    slices=[block],
                    d=state.d,
                    lane=info.lane,
                    seq=packet.seq,
                    source_address=self.address,
                    destination_address=child,
                )
            )
        return outgoing

    def _handle_data_run(
        self,
        state: FlowState,
        lane: int,
        packets: list[Packet],
        pending: list[tuple[FlowState, int]],
    ) -> list[Packet]:
        """Batched :meth:`_handle_data` for a same-lane run on a decoded flow.

        Equivalent to handling each packet in order; the accumulation, the
        receiver's pending-delivery bookkeeping and the forward construction
        all run once per run instead of once per packet.
        """
        info = state.info
        assert info is not None
        accepted = state.data.add_run(
            lane, [(packet.seq, packet.slices[0]) for packet in packets]
        )
        if not accepted:
            return []
        if info.is_receiver:
            pending.extend((state, seq) for seq, _ in accepted)
        outgoing: list[Packet] = []
        data_forwarded = state.data_forwarded
        for child_index, (child, child_flow) in enumerate(
            zip(info.next_hop_addresses, info.next_hop_flow_ids)
        ):
            if info.data_map.for_child(child_index) != lane:
                continue
            for seq, block in accepted:
                key = (seq, child_index)
                if key in data_forwarded:
                    continue
                data_forwarded.add(key)
                outgoing.append(
                    Packet(
                        flow_id=child_flow,
                        kind=PacketKind.DATA,
                        slices=[block],
                        d=state.d,
                        lane=info.lane,
                        seq=seq,
                        source_address=self.address,
                        destination_address=child,
                    )
                )
        return outgoing

    def flush_data(self, flow_id: int, seq: int) -> list[Packet]:
        """Regenerate and forward slices for children whose parent slice is lost.

        Implements §4.4.1 for one data message: ``flush_data_many(flow_id,
        [seq])``.  The package flushes whole bursts through
        :meth:`flush_data_many`; this entry point stays because
        ``perfbench/spans.py`` wraps it by name.
        """
        return self.flush_data_many(flow_id, [seq])

    def flush_data_many(self, flow_id: int, seqs: list[int]) -> list[Packet]:
        """Regenerate and forward, for a burst, slices lost upstream (§4.4.1).

        For every seq holding at least ``d`` slices in its plane (extras of
        a clashing length are left out), every child not yet fed gets a
        fresh random combination of them, its weights drawn in seq-then-child
        order as ``SliceCoder.recombine`` would.  Without
        ``regenerate_redundancy`` a lost slice stays lost.
        """
        state = self.flows.get(flow_id)
        if state is None or not state.decoded:
            return []
        info = state.info
        assert info is not None
        children = list(enumerate(zip(info.next_hop_addresses, info.next_hop_flow_ids)))
        items: list[tuple[int, np.ndarray]] = []
        targets: list[tuple[int, str, int]] = []
        for seq in seqs:
            flushed = seq in state.data_flushed
            state.data_flushed.add(seq)
            if flushed or not self.regenerate_redundancy:
                continue
            count = state.data.plane_count(seq)
            if count < state.d:
                continue
            for child_index, (child, child_flow) in children:
                if (seq, child_index) in state.data_forwarded:
                    continue
                weights = self.field.random_elements(count, self.rng)
                while not weights.any():
                    weights = self.field.random_elements(count, self.rng)
                state.data_forwarded.add((seq, child_index))
                items.append((seq, weights))
                targets.append((seq, child, child_flow))
        self.stats.regenerated_slices += len(items)
        outgoing = [
            Packet(
                flow_id=child_flow,
                kind=PacketKind.DATA,
                slices=[replacement],
                d=state.d,
                lane=info.lane,
                seq=seq,
                source_address=self.address,
                destination_address=child,
            )
            for (seq, child, child_flow), replacement in zip(
                targets, state.data.recombine_many(items)
            )
        ]
        self._account_sent(outgoing)
        return outgoing

    def _deliver_pending(self, pending: list[tuple[FlowState, int]]) -> None:
        """Batched delivery decode for every (flow, seq) touched by a batch."""
        per_state: dict[int, tuple[FlowState, list[int]]] = {}
        seen: set[tuple[int, int]] = set()
        for state, seq in pending:
            key = (id(state), seq)
            if key in seen:
                continue
            seen.add(key)
            per_state.setdefault(id(state), (state, []))[1].append(seq)
        for state, seqs in per_state.values():
            ready = [
                seq
                for seq in seqs
                if seq not in state.delivered and state.data.count(seq) >= state.d
            ]
            if not ready:
                continue
            decoded = state.data.decode_many(ready)
            if not decoded:
                continue
            info = state.info
            assert info is not None
            cipher = StreamCipher(info.secret_key)
            for seq in ready:
                ciphertext = decoded.get(seq)
                if ciphertext is None:
                    continue
                state.delivered[seq] = cipher.decrypt(ciphertext, data_nonce(seq))
                self.stats.messages_delivered += 1
