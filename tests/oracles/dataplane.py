"""The per-packet reference data plane (§4.3.5–§4.4.1).

:class:`RowFlowDecoder` is the per-row reference store: one Python container
per stored seq for its lanes, duplicate set and slot references, where
:class:`~repro.core.flow_decoder.FlowDecoder` keeps bitmasks and runs.
:class:`ScalarRelay` handles data one :class:`~repro.core.packet.Packet` at a
time — store the slice in a :class:`RowFlowDecoder`, forward it on its lane,
one packet per child — and decodes a relay's routing slices and every data
message with :func:`~repro.core.integrity.robust_decode`, the moment the
``d``-th slice arrives.  Its flow entries are :class:`ScalarFlowState`, whose
forward and flush markers are ``(seq, child)`` and ``seq`` sets.
:class:`ScalarSlicingRuntime` ships every packet as its own
transmit, arrival and CPU event and arms one flush timer per message: the
sender's CPU, then the connection, then the receiver's CPU, each reserved at
its own instant.  Both override only what the reference does differently;
flow tables and setup forwarding are the shipped code.
:func:`reference_flush_data` is the per-seq, per-replacement regeneration of
§4.4.1 — one :meth:`~repro.core.coder.SliceCoder.recombine` per slice — that
``Relay.flush_data_many`` batches into one product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.coder import CodedBlock, SliceCoder, _unpad_message
from repro.core.errors import CodingError, InsufficientSlicesError, ProtocolError
from repro.core.gf import GF, GF256
from repro.core.integrity import robust_decode, unwrap, verify
from repro.core.node_info import NodeInfo
from repro.core.packet import Packet, PacketBatch, PacketKind
from repro.core.relay import FlowState, Relay
from repro.core.source import FlowSetup, Source, data_nonce
from repro.crypto.symmetric import StreamCipher
from repro.overlay.node import DEFAULT_FLUSH_TIMEOUT, SlicingRuntime


class RowPlane:
    """Slice references for all sequences sharing one payload length, per row.

    The plane owns no slice bytes: a run is the received batch itself, kept
    until the last slot it feeds is dropped, and :meth:`gather` copies
    slices out for a reader.  Per-row bookkeeping (arrival-ordered lanes,
    duplicate sets, slot references) stays in plain Python containers, which
    are markedly cheaper than element-wise numpy indexing on the per-packet
    path.
    """

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}
        self.free: list[int] = []
        #: Referenced runs by id, and how many filled slots each still feeds.
        self.runs: dict[int, PacketBatch] = {}
        self.run_slots: dict[int, int] = {}
        self.next_run = 0
        #: Arrival-ordered lane of every filled slot, per row.
        self.lane_lists: list[list[int]] = []
        #: Per-row lane membership for O(1) duplicate detection.
        self.lane_sets: list[set[int]] = []
        #: ``(run id, row of that run)`` of every filled slot, per row.
        self.slot_refs: list[list[tuple[int, int]]] = []

    def count(self, seq: int) -> int:
        row = self.rows.get(seq)
        return 0 if row is None else len(self.lane_lists[row])

    def lanes_for(self, seq: int) -> list[int]:
        row = self.rows.get(seq)
        return [] if row is None else list(self.lane_lists[row])

    def blocks(self, seq: int) -> list[CodedBlock]:
        row = self.rows.get(seq)
        if row is None:
            return []
        return [
            CodedBlock(
                coefficients=self.runs[run].coefficients[at].copy(),
                payload=self.runs[run].payloads[at].copy(),
                index=lane,
            )
            for (run, at), lane in zip(self.slot_refs[row], self.lane_lists[row])
        ]

    def gather(self, rows: list[int], coeffs: np.ndarray, payloads: np.ndarray) -> None:
        """Copy the slices of ``rows[i]`` into ``coeffs[i]`` / ``payloads[i]``, arrival order.

        At most ``coeffs.shape[1]`` slices per row, in one fancy-index read
        and write per referenced run; slots past a row's count are left as
        they are.
        """
        per_run: dict[int, tuple[list[int], list[int], list[int]]] = {}
        for position, row in enumerate(rows):
            for slot, (run, at) in enumerate(self.slot_refs[row][: coeffs.shape[1]]):
                positions, slots, ats = per_run.setdefault(run, ([], [], []))
                positions.append(position)
                slots.append(slot)
                ats.append(at)
        for run, (positions, slots, at) in per_run.items():
            coeffs[positions, slots] = self.runs[run].coefficients[at]
            payloads[positions, slots] = self.runs[run].payloads[at]

    def drop(self, seq: int) -> bool:
        row = self.rows.pop(seq, None)
        if row is None:
            return False
        run_slots = self.run_slots
        for run, _ in self.slot_refs[row]:
            run_slots[run] -= 1
            if not run_slots[run]:
                del run_slots[run], self.runs[run]
        self.lane_lists[row].clear()
        self.lane_sets[row].clear()
        self.slot_refs[row].clear()
        self.free.append(row)
        return True

    def _allocate_row(self, seq: int) -> int:
        if self.free:
            row = self.free.pop()
        else:
            row = len(self.lane_lists)
            self.lane_lists.append([])
            self.lane_sets.append(set())
            self.slot_refs.append([])
        self.rows[seq] = row
        return row


class RowFlowDecoder:
    """A flow's data slices, held by reference, with batched robust decode.

    Parameters
    ----------
    d:
        Split factor of the flow; any ``d`` independent slices reconstruct a
        message.
    field:
        Finite-field implementation.  Defaults to the shared
        :data:`~repro.core.gf.GF`.
    """

    def __init__(self, d: int, field: GF256 | None = None) -> None:
        if d < 1:
            raise CodingError(f"split factor d must be >= 1, got {d}")
        self.d = d
        self.field = GF if field is None else field
        self._coder = SliceCoder(d, field=self.field)
        self._planes: dict[int, RowPlane] = {}
        self._seq_plane: dict[int, int] = {}
        self._extras: dict[int, list[CodedBlock]] = {}

    # -- storage ---------------------------------------------------------------------

    def __contains__(self, seq: int) -> bool:
        return seq in self._seq_plane

    def __len__(self) -> int:
        """Number of sequence numbers currently holding slices."""
        return len(self._seq_plane)

    def seqs(self) -> list[int]:
        """Sequence numbers with stored slices, ascending."""
        return sorted(self._seq_plane)

    def count(self, seq: int) -> int:
        """Number of slices stored for ``seq`` (0 if unknown)."""
        block_len = self._seq_plane.get(seq)
        if block_len is None:
            return 0
        count = self._planes[block_len].count(seq)
        extras = self._extras.get(seq)
        return count if extras is None else count + len(extras)

    def plane_count(self, seq: int) -> int:
        """Slices of ``seq`` in its plane: :meth:`count` minus length-clashing extras."""
        block_len = self._seq_plane.get(seq)
        return 0 if block_len is None else self._planes[block_len].count(seq)

    def lanes(self, seq: int) -> list[int]:
        """Lanes that have delivered a slice for ``seq``, in arrival order."""
        block_len = self._seq_plane.get(seq)
        if block_len is None:
            return []
        lanes = self._planes[block_len].lanes_for(seq)
        lanes.extend(block.index for block in self._extras.get(seq, []))
        return lanes

    def add(self, seq: int, lane: int, block: CodedBlock) -> bool:
        """Store one slice by reference; returns False for a duplicate (seq, lane)."""
        row = PacketBatch(0, block.d, lane, [seq], block.coefficients[None], block.payload[None])
        return bool(self.add_run(lane, row))

    def add_run(self, lane: int, items: PacketBatch) -> list[int]:
        """Store a same-lane batch of slices; returns the rows accepted, ascending.

        This is the shape a relay receives on the steady-state data path —
        one parent connection delivering a burst of consecutive sequence
        numbers on one lane.  The bookkeeping (row, slot, duplicate lane)
        runs per seq; the plane keeps ``items`` itself and records which of
        its rows each slot holds, so no slice byte is copied here.
        """
        width = items.coefficients.shape[1]
        if width != self.d:
            raise CodingError(
                f"slice coded with split factor {width}, flow decoder expects {self.d}"
            )
        block_len = items.payloads.shape[1]
        seq_plane, extras = self._seq_plane, self._extras
        plane = self._planes.get(block_len)
        if plane is None:
            plane = self._planes[block_len] = RowPlane()
        rows, lane_sets, lane_lists, slot_refs = (
            plane.rows, plane.lane_sets, plane.lane_lists, plane.slot_refs
        )
        run = plane.next_run
        accepted: list[int] = []
        filled = 0
        for position, seq in enumerate(items.seqs):
            owner = seq_plane.get(seq)
            if owner is None:
                seq_plane[seq] = owner = block_len
            if extras and any(extra.index == lane for extra in extras.get(seq, ())):
                continue
            if owner != block_len:
                # Length clash within one sequence: a non-conforming sender.
                # Park the slice; decoding this seq goes through the scalar
                # fallback.
                if lane not in self._planes[owner].lanes_for(seq):
                    extras.setdefault(seq, []).append(CodedBlock(
                        items.coefficients[position], items.payloads[position], index=lane
                    ))
                    accepted.append(position)
                continue
            row = rows.get(seq)
            if row is None:
                row = plane._allocate_row(seq)
            lane_set = lane_sets[row]
            if lane in lane_set:
                continue
            lane_lists[row].append(lane)
            lane_set.add(lane)
            slot_refs[row].append((run, position))
            accepted.append(position)
            filled += 1
        if filled:
            plane.next_run += 1
            plane.runs[run], plane.run_slots[run] = items, filled
        return accepted

    def recombine_many(self, items: list[tuple[int, np.ndarray]]) -> list[np.ndarray]:
        """One linear combination per ``(seq, weights)`` item, one product per plane.

        ``weights`` scales the first ``len(weights)`` slices of ``seq``'s
        plane, gathered into one zero-padded stack per plane.  Returns one
        ``(d + block_len,)`` combination per item, coefficients first.
        """
        per_plane: dict[int, list[int]] = {}
        for position, (seq, _) in enumerate(items):
            per_plane.setdefault(self._seq_plane[seq], []).append(position)
        combined: list[np.ndarray] = [None] * len(items)
        for block_len, positions in per_plane.items():
            plane = self._planes[block_len]
            chosen = [items[position] for position in positions]
            padded = np.zeros((len(chosen), 1, max(len(w) for _, w in chosen)), dtype=np.uint8)
            for row, (_, weights) in enumerate(chosen):
                padded[row, 0, : len(weights)] = weights
            stack = np.zeros((len(chosen), padded.shape[2], self.d + block_len), dtype=np.uint8)
            plane.gather([plane.rows[seq] for seq, _ in chosen], stack[..., : self.d],
                         stack[..., self.d :])
            for position, row in zip(positions, self.field.batched_matmul(padded, stack)[:, 0]):
                combined[position] = row
        return combined

    def blocks(self, seq: int) -> list[CodedBlock]:
        """Reconstruct the stored slices of ``seq`` as blocks, in arrival order."""
        block_len = self._seq_plane.get(seq)
        if block_len is None:
            return []
        blocks = self._planes[block_len].blocks(seq)
        blocks.extend(self._extras.get(seq, []))
        return blocks

    def drop(self, seq: int) -> bool:
        """Forget all slices of ``seq``; returns False if it held none."""
        block_len = self._seq_plane.pop(seq, None)
        if block_len is None:
            return False
        self._planes[block_len].drop(seq)
        self._extras.pop(seq, None)
        return True

    def retire_before(self, before_seq: int) -> int:
        """Drop every sequence number ``< before_seq``; returns count dropped."""
        stale = [seq for seq in self._seq_plane if seq < before_seq]
        for seq in stale:
            self.drop(seq)
        return len(stale)

    # -- batched decode ----------------------------------------------------------------

    def decode_many(self, seqs: list[int]) -> dict[int, bytes]:
        """Robust-decode every listed sequence that can decode, in one batch.

        Returns ``{seq: unwrapped payload}``; sequences whose slices cannot
        produce a verifying decode (not enough independent slices, or only
        churn padding) are simply absent from the result.  Byte-identical to
        calling :func:`~repro.core.integrity.robust_decode` per sequence.
        """
        per_plane: dict[int, list[int]] = {}
        fallback: list[int] = []
        for seq in seqs:
            if self.count(seq) < self.d:
                continue
            block_len = self._seq_plane[seq]
            if seq in self._extras or self._planes[block_len].count(seq) < self.d:
                fallback.append(seq)
            else:
                per_plane.setdefault(block_len, []).append(seq)
        decoded: dict[int, bytes] = {}
        for block_len, candidates in per_plane.items():
            plane = self._planes[block_len]
            coeffs = np.empty((len(candidates), self.d, self.d), dtype=np.uint8)
            payloads = np.empty((len(candidates), self.d, block_len), dtype=np.uint8)
            plane.gather([plane.rows[seq] for seq in candidates], coeffs, payloads)
            inverses, invertible = self.field.try_invert_matrices(coeffs)
            if invertible.any():
                sub = np.flatnonzero(invertible)
                pieces = self.field.batched_matmul(inverses[sub], payloads[sub])
                for position, batch_index in enumerate(sub):
                    seq = candidates[int(batch_index)]
                    try:
                        candidate = _unpad_message(pieces[position])
                    except CodingError:
                        fallback.append(seq)
                        continue
                    if verify(candidate):
                        decoded[seq] = unwrap(candidate)
                    else:
                        fallback.append(seq)
            fallback.extend(candidates[int(i)] for i in np.flatnonzero(~invertible))
        for seq in fallback:
            try:
                decoded[seq] = robust_decode(self._coder, self.blocks(seq))
            except (InsufficientSlicesError, CodingError):
                continue
        return decoded


@dataclass
class ScalarFlowState(FlowState):
    """A flow entry whose data store and markers are per row."""

    forwarded_pairs: set[tuple[int, int]] = field(default_factory=set)
    flushed_seqs: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.data = RowFlowDecoder(self.d, field=self.coding_field)

    def retire_before(self, before_seq: int) -> int:
        if before_seq <= self.retired_before:
            return 0
        self.retired_before = before_seq
        dropped = self.data.retire_before(before_seq)
        self.forwarded_pairs = {
            (seq, child) for seq, child in self.forwarded_pairs if seq >= before_seq
        }
        self.flushed_seqs = {seq for seq in self.flushed_seqs if seq >= before_seq}
        return dropped

    def markers(self) -> tuple[set[tuple[int, int]], set[int]]:
        return set(self.forwarded_pairs), set(self.flushed_seqs)


def batch_packets(items: list) -> list[Packet]:
    """Every packet of ``items``: a batch's rows become scalar packets."""
    packets: list[Packet] = []
    for item in items:
        if not isinstance(item, PacketBatch):
            packets.append(item)
            continue
        for seq, coefficients, payload in zip(item.seqs, item.coefficients, item.payloads):
            packets.append(
                Packet(
                    flow_id=item.flow_id,
                    kind=PacketKind.DATA,
                    slices=[CodedBlock(coefficients, payload, 0)],
                    d=item.d,
                    lane=item.lane,
                    seq=seq,
                    source_address=item.source_address,
                    destination_address=item.destination_address,
                )
            )
    return packets


def reference_flush_data(relay: Relay, flow_id: int, seqs: list[int]) -> list[Packet]:
    """``Relay.flush_data_many`` one seq at a time, one ``recombine`` per slice.

    The shipped flush before it was batched, verbatim except that only the
    seq's plane is combined: a length-clashing extra slice is left out
    instead of making ``recombine`` raise.  ``relay``'s flow entries are
    :class:`ScalarFlowState`: the markers are its sets.
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
    if seq in state.flushed_seqs or not info.next_hop_addresses:
        state.flushed_seqs.add(seq)
        return []
    state.flushed_seqs.add(seq)
    blocks: list[CodedBlock] | None = None
    coder: SliceCoder | None = None
    outgoing: list[Packet] = []
    for child_index, (child, child_flow) in enumerate(
        zip(info.next_hop_addresses, info.next_hop_flow_ids)
    ):
        if (seq, child_index) in state.forwarded_pairs:
            continue
        if not self.regenerate_redundancy or state.data.plane_count(seq) < state.d:
            continue
        if blocks is None:
            blocks = state.data.blocks(seq)[: state.data.plane_count(seq)]
            coder = SliceCoder(state.d, field=self.field)
        replacement = coder.recombine(blocks, self.rng)
        self.stats.regenerated_slices += 1
        state.forwarded_pairs.add((seq, child_index))
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

    def _state_for(self, packet: Packet) -> ScalarFlowState:
        state = self.flows.get(packet.flow_id)
        if state is None:
            state = ScalarFlowState(flow_id=packet.flow_id, d=packet.d, coding_field=self.field)
            self.flows[packet.flow_id] = state
        return state

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

    def _handle_data_run(self, state, batch, pending):
        outgoing: list[Packet] = []
        for packet in batch_packets([batch]):
            outgoing.extend(self._handle_data(state, packet))
        return outgoing

    def _handle_data(self, state: FlowState, packet: Packet) -> list[Packet]:
        """Store one slice, deliver at ``d``, forward it to every child on its lane."""
        info = state.info
        block = packet.own_slice
        if not state.data.add(packet.seq, packet.lane, block):
            return []
        if info.is_receiver:
            self._try_deliver(state, packet.seq)
        outgoing: list[Packet] = []
        for child_index, (child, child_flow) in enumerate(
            zip(info.next_hop_addresses, info.next_hop_flow_ids)
        ):
            if info.data_map.for_child(child_index) != packet.lane:
                continue
            if (packet.seq, child_index) in state.forwarded_pairs:
                continue
            state.forwarded_pairs.add((packet.seq, child_index))
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
        per_message: dict[int, list[Packet]] = {}
        for packet in batch_packets(source.make_data_packets_batch(flow, messages)):
            per_message.setdefault(packet.seq, []).append(packet)
        for message, (seq, packets) in zip(messages, per_message.items()):
            cpu = resources.coding_time(max(len(message) // max(flow.d, 1), 1), flow.d)
            for packet in packets:
                self._send_packet(packet, cpu)
            self.sim.schedule(
                DEFAULT_FLUSH_TIMEOUT,
                lambda seq=seq: self._flush_data_burst(flow, progress, [seq]),
            )

    def _transmit_packets(self, sender, receiver, packets, sender_cpus) -> None:
        for packet, cpu in zip(batch_packets(packets), sender_cpus):
            self._send_packet(packet, cpu)

    def _dispatch_outputs(self, sender: str, outputs: list[Packet]) -> None:
        # In output order, not grouped per receiver.
        for packet in batch_packets(outputs):
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
