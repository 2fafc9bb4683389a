"""The source utility: flow establishment and data transmission (§4.3, §7.1).

A :class:`Source` owns one IP address and ``d' - 1`` pseudo-source addresses
(§3c).  To talk to a destination it:

1. picks relays, builds a forwarding graph (Algorithm 1) and compiles the
   per-node routing information (:func:`~repro.core.slice_map.compile_flow_plan`);
2. slices every relay's information into ``d'`` coded slices and bundles them
   into the initial packets that the source-stage nodes transmit to the first
   relay stage (§4.3.4);
3. for each data message, encrypts it with the destination's key, codes it
   into ``d'`` data slices, and has each source-stage node inject one slice
   into every first-stage relay (§4.3.7, §4.4c).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..crypto.symmetric import StreamCipher
from .coder import CodedBlock, SliceCoder
from .errors import GraphConstructionError, ProtocolError
from .gf import GF, GF256
from .graph import ForwardingGraph, build_forwarding_graph
from .integrity import wrap
from .packet import Packet, PacketBatch, PacketKind, random_padding_slices
from .slice_map import FlowPlan, compile_flow_plan


def data_nonce(sequence: int) -> bytes:
    """The per-message nonce used to encrypt data message ``sequence``."""
    return struct.pack(">Q", sequence)


@dataclass
class FlowSetup:
    """A fully prepared anonymous flow, ready to be driven over an overlay."""

    plan: FlowPlan
    coder: SliceCoder
    setup_packets: list[Packet]
    d: int
    d_prime: int
    next_sequence: int = 0
    info_blocks: dict[str, list[CodedBlock]] = field(default_factory=dict)

    @property
    def graph(self) -> ForwardingGraph:
        return self.plan.graph

    @property
    def destination(self) -> str:
        return self.plan.destination

    @property
    def destination_key(self) -> bytes:
        return self.plan.keys[self.plan.destination].key


class Source:
    """Builds anonymous flows and produces the packets that drive them.

    Parameters
    ----------
    address:
        The source's own address (stage-0 position 0).
    pseudo_sources:
        ``d' - 1`` additional addresses under the source's control (§3c).
    d / d_prime / path_length:
        Protocol parameters (paper's ``d``, ``d'`` and ``L``).
    rng:
        Randomness source; pass a seeded generator for reproducible flows.
    field:
        The GF(2^8) implementation this source's coders use; defaults to
        the shared :data:`~repro.core.gf.GF`.
    """

    def __init__(
        self,
        address: str,
        pseudo_sources: list[str],
        d: int,
        path_length: int,
        d_prime: int | None = None,
        rng: np.random.Generator | None = None,
        field: GF256 | None = None,
    ) -> None:
        self.address = address
        self.pseudo_sources = list(pseudo_sources)
        self.d = d
        self.d_prime = d if d_prime is None else d_prime
        self.path_length = path_length
        self.rng = np.random.default_rng() if rng is None else rng
        self.field = GF if field is None else field
        if self.d_prime < self.d:
            raise ProtocolError(f"d' ({self.d_prime}) must be >= d ({self.d})")
        if len(self.pseudo_sources) != self.d_prime - 1:
            raise GraphConstructionError(
                f"need exactly d'-1={self.d_prime - 1} pseudo-sources, "
                f"got {len(self.pseudo_sources)}"
            )

    @property
    def source_stage(self) -> list[str]:
        """The stage-0 addresses: the source itself plus its pseudo-sources."""
        return [self.address, *self.pseudo_sources]

    # -- flow establishment --------------------------------------------------------

    def establish_flow(
        self, relay_candidates: list[str], destination: str
    ) -> FlowSetup:
        """Build the forwarding graph and the initial setup packets."""
        graph = build_forwarding_graph(
            source_addresses=self.source_stage,
            relay_addresses=relay_candidates,
            destination=destination,
            path_length=self.path_length,
            d=self.d,
            d_prime=self.d_prime,
            rng=self.rng,
        )
        return self.prepare_flow(graph)

    def prepare_flow(self, graph: ForwardingGraph) -> FlowSetup:
        """Compile an existing graph into a flow (useful for tests/analysis)."""
        plan = compile_flow_plan(graph, self.rng)
        coder = SliceCoder(self.d, self.d_prime, field=self.field)
        info_blocks = self._encode_node_infos(plan, coder)
        setup_packets = self._build_setup_packets(plan, info_blocks)
        return FlowSetup(
            plan=plan,
            coder=coder,
            setup_packets=setup_packets,
            d=self.d,
            d_prime=self.d_prime,
            info_blocks=info_blocks,
        )

    def _encode_node_infos(
        self, plan: FlowPlan, coder: SliceCoder
    ) -> dict[str, list[CodedBlock]]:
        """Slice every relay's routing information into ``d'`` coded blocks.

        All payloads are padded to a common length before coding so that every
        slice in the system has the same size — a requirement of the constant
        packet format (§9.4c).
        """
        wrapped = {
            relay: wrap(plan.node_infos[relay].pack()) for relay in plan.graph.relays
        }
        max_len = max(len(blob) for blob in wrapped.values())
        padded = [blob + b"\x00" * (max_len - len(blob)) for blob in wrapped.values()]
        # Each relay's matrix in turn, as one encode per relay would draw it.
        matrices = coder.generate_matrix_run(len(padded), self.rng)
        return dict(zip(wrapped, coder.encode_batch(padded, self.rng, matrices)))

    def _build_setup_packets(
        self, plan: FlowPlan, info_blocks: dict[str, list[CodedBlock]]
    ) -> list[Packet]:
        """Build the packets the source stage sends to the first relay stage."""
        graph = plan.graph
        sample_block = next(iter(info_blocks.values()))[0]
        payload_bytes = int(sample_block.payload.shape[0])
        edges = [
            (lane, origin, child)
            for lane, origin in enumerate(graph.source_stage)
            for child in graph.stages[1]
        ]
        # Every packet's padding, in packet order, from one draw.
        slots = plan.slots_per_packet
        holes = sum(slots - len(plan.edge_slices[(origin, child)]) for _, origin, child in edges)
        padding = iter(random_padding_slices(holes, self.d, payload_bytes, self.rng))
        packets: list[Packet] = []
        for lane, origin, child in edges:
            slices = [info_blocks[owner][k] for owner, k in plan.edge_slices[(origin, child)]]
            slices += (next(padding) for _ in range(slots - len(slices)))
            packets.append(
                Packet(
                    flow_id=plan.flow_ids[child],
                    kind=PacketKind.SETUP,
                    slices=slices,
                    d=self.d,
                    lane=lane,
                    seq=0,
                    source_address=origin,
                    destination_address=child,
                )
            )
        return packets

    # -- data transmission -----------------------------------------------------------

    def make_data_packets_batch(
        self, flow: FlowSetup, messages: list[bytes]
    ) -> list[PacketBatch]:
        """Encrypt, slice and packetise a burst of data messages (§4.3.7, §4.4c).

        Returns one :class:`PacketBatch` per connection and run: source-stage
        node ``lane`` injects data slice ``lane`` of every message into every
        first-stage relay, establishing the invariant the data-maps rely on.

        The burst is cut into runs of consecutive equal-length messages (one
        run in the steady state), each coded in one GF(2^8) pass
        (:meth:`~repro.core.coder.SliceCoder.encode_stacks`); the batch of
        connection (source-stage node ``lane``, first-stage relay) views
        slice ``lane`` of the run's stacks, which are read-only.  A
        mixed-length burst draws its coding matrices as one run of
        per-message draws (:meth:`~repro.core.coder.SliceCoder.generate_matrix_run`).
        """
        if not messages:
            return []
        first = flow.next_sequence
        flow.next_sequence += len(messages)
        cipher = StreamCipher(flow.destination_key)
        wrapped = [
            wrap(cipher.encrypt(bytes(message), data_nonce(sequence)))
            for sequence, message in enumerate(messages, first)
        ]
        cuts = (i for i in range(1, len(wrapped)) if len(wrapped[i]) != len(wrapped[i - 1]))
        bounds = [0, *cuts, len(wrapped)]
        matrices = None
        if len(bounds) > 2:
            matrices = flow.coder.generate_matrix_run(len(wrapped), self.rng)
        plan = flow.plan
        batches: list[PacketBatch] = []
        for start, stop in zip(bounds, bounds[1:]):
            coefficients, coded = flow.coder.encode_stacks(
                wrapped[start:stop],
                self.rng,
                None if matrices is None else matrices[start:stop],
            )
            coefficients.flags.writeable = coded.flags.writeable = False
            seqs = list(range(first + start, first + stop))
            batches += (
                PacketBatch(plan.flow_ids[child], self.d, lane, seqs, coefficients[:, lane],
                            coded[:, lane], origin, child)
                for lane, origin in enumerate(plan.graph.source_stage)
                for child in plan.graph.stages[1]
            )
        return batches
