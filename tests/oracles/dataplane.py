"""The per-packet reference data plane (§4.3.5–§4.4.1).

:class:`ScalarRelay` decodes a relay's routing slices and every data message
with :func:`~repro.core.integrity.robust_decode`, the moment the ``d``-th
slice arrives.  :class:`ScalarSlicingRuntime` ships every packet as its own
transmit, arrival and CPU event and arms one flush timer per message: the
sender's CPU, then the connection, then the receiver's CPU, each reserved at
its own instant.  Both override only what the reference does differently;
flow tables, forwarding and retention are the shipped code.
:func:`reference_flush_data` is the per-seq, per-replacement regeneration of
§4.4.1 — one :meth:`~repro.core.coder.SliceCoder.recombine` per slice — that
``Relay.flush_data_many`` batches into one product.
"""

from __future__ import annotations

from repro.core.coder import CodedBlock, SliceCoder
from repro.core.errors import CodingError, InsufficientSlicesError, ProtocolError
from repro.core.integrity import robust_decode
from repro.core.node_info import NodeInfo
from repro.core.packet import Packet, PacketKind
from repro.core.relay import FlowState, Relay
from repro.core.source import FlowSetup, Source, data_nonce
from repro.crypto.symmetric import StreamCipher
from repro.overlay.node import SlicingRuntime


def reference_flush_data(relay: Relay, flow_id: int, seqs: list[int]) -> list[Packet]:
    """``Relay.flush_data_many`` one seq at a time, one ``recombine`` per slice.

    The shipped flush before it was batched, verbatim except that only the
    seq's plane is combined: a length-clashing extra slice is left out
    instead of making ``recombine`` raise.
    """
    state = relay.flows.get(flow_id)
    if state is None or not state.decoded:
        return []
    outgoing: list[Packet] = []
    for seq in seqs:
        outgoing.extend(_flush_data_state(relay, state, seq))
    return outgoing


def _flush_data_state(self: Relay, state: FlowState, seq: int) -> list[Packet]:
    info = state.info
    assert info is not None
    if seq in state.data_flushed or not info.next_hop_addresses:
        state.data_flushed.add(seq)
        return []
    state.data_flushed.add(seq)
    blocks: list[CodedBlock] | None = None
    coder: SliceCoder | None = None
    outgoing: list[Packet] = []
    for child_index, (child, child_flow) in enumerate(
        zip(info.next_hop_addresses, info.next_hop_flow_ids)
    ):
        if (seq, child_index) in state.data_forwarded:
            continue
        if not self.regenerate_redundancy or state.data.plane_count(seq) < state.d:
            continue
        if blocks is None:
            blocks = state.data.blocks(seq)[: state.data.plane_count(seq)]
            coder = SliceCoder(state.d, field=self.field)
        replacement = coder.recombine(blocks, self.rng)
        self.stats.regenerated_slices += 1
        state.data_forwarded.add((seq, child_index))
        outgoing.append(
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
        )
    self._account_sent(outgoing)
    return outgoing


class ScalarRelay(Relay):
    """A relay that decodes one message at a time, never deferring."""

    flush_data_many = reference_flush_data

    def _try_decode_info(self, state: FlowState) -> None:
        blocks = state.own_setup_blocks()
        if len(blocks) < state.d:
            return
        try:
            payload = robust_decode(SliceCoder(state.d, field=self.field), blocks)
            state.info = NodeInfo.unpack(payload)
            self.stats.flows_decoded += 1
        except (InsufficientSlicesError, CodingError, ProtocolError):
            state.info = None

    def _handle_data_run(self, state, lane, packets, pending):
        outgoing: list[Packet] = []
        for packet in packets:
            outgoing.extend(self._handle_data(state, packet, pending))
        return outgoing

    def _handle_data(self, state, packet, pending):
        deliverable: list[tuple[FlowState, int]] = []
        outgoing = super()._handle_data(state, packet, deliverable)
        for _state, seq in deliverable:
            self._try_deliver(state, seq)
        return outgoing

    def _try_deliver(self, state: FlowState, seq: int) -> None:
        if seq in state.delivered or state.data.count(seq) < state.d:
            return
        try:
            ciphertext = robust_decode(
                SliceCoder(state.d, field=self.field), state.data.blocks(seq)
            )
        except (InsufficientSlicesError, CodingError):
            return
        cipher = StreamCipher(state.info.secret_key)
        state.delivered[seq] = cipher.decrypt(ciphertext, data_nonce(seq))
        self.stats.messages_delivered += 1


class ScalarSlicingRuntime(SlicingRuntime):
    """Every packet its own transmit, arrival and CPU event."""

    def add_relay(self, address: str) -> Relay:
        if address not in self.relays:
            seeded = super().add_relay(address)
            self.relays[address] = ScalarRelay(address, rng=seeded.rng)
        return self.relays[address]

    def send_messages(self, source: Source, flow: FlowSetup, messages: list[bytes]) -> None:
        progress = self.progress[id(flow)]
        resources = self.substrate.network.resources(source.address)
        for message, packets in zip(messages, source.make_data_packets_batch(flow, messages)):
            cpu = resources.coding_time(max(len(message) // max(flow.d, 1), 1), flow.d)
            for packet in packets:
                self._send_packet(packet, cpu)
            seq = packets[0].seq
            self.sim.schedule(
                self.flush_timeout,
                lambda seq=seq: self._flush_data_burst(flow, progress, [seq]),
            )

    def _transmit_packets(self, sender, receiver, packets, sender_cpus) -> None:
        for packet, cpu in zip(packets, sender_cpus):
            self._send_packet(packet, cpu)

    def _dispatch_outputs(self, sender: str, outputs: list[Packet]) -> None:
        # In output order, not grouped per receiver.
        for packet in outputs:
            self._send_packet(packet, 0.0)

    def _send_packet(self, packet: Packet, sender_cpu: float) -> None:
        receiver = packet.destination_address

        def arrive() -> None:
            if receiver not in self.relays:
                return
            resources = self.substrate.network.resources(receiver)
            done = self.substrate.reserve_cpu(
                receiver, self._packet_cpu_cost(packet, resources)
            )
            self.sim.schedule_at(done, lambda: self._handle_batch(receiver, [packet]))

        self._transmit_one(
            packet.source_address, receiver, packet.size_bytes(), arrive, sender_cpu
        )

    def _transmit_one(self, sender, receiver, size_bytes, on_delivered, sender_cpu) -> None:
        """One packet: sender CPU, then the connection once the CPU is done."""
        substrate = self.substrate
        if not substrate.is_alive(sender):
            substrate.stats.packets_dropped += 1
            return
        cpu_done = substrate.reserve_cpu(sender, sender_cpu + substrate.per_packet_overhead)

        def start_transmission() -> None:
            if not substrate.is_alive(sender):
                substrate.stats.packets_dropped += 1
                return
            key = (sender, receiver)
            start = max(self.sim.now, substrate._link_free_at.get(key, 0.0))
            link_done = start + size_bytes * 8.0 / substrate.connection_bps
            substrate._link_free_at[key] = link_done
            substrate.stats.packets_sent += 1
            substrate.stats.bytes_sent += size_bytes

            def deliver() -> None:
                if not substrate.is_alive(receiver):
                    substrate.stats.packets_dropped += 1
                    return
                on_delivered()

            arrival = link_done + substrate.network.latency(sender, receiver)
            self.sim.schedule_at(arrival, deliver)

        self.sim.schedule_at(cpu_done, start_transmission)
