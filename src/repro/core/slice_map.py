"""Flow-plan compilation: graph -> per-node routing information.

Given a :class:`~repro.core.graph.ForwardingGraph`, the source needs concrete
per-node artefacts (§4.3.1):

* a flow-id and a secret key per relay,
* the slice-map describing how each relay shuffles setup slices into the
  packets it sends to each child (§4.3.6), and
* the data-map describing how data slices are routed so every node ends up
  with exactly ``d'`` distinct data slices (§4.3.7).

:func:`compile_flow_plan` produces all of these as a :class:`FlowPlan`, which
the :class:`~repro.core.source.Source` then slices, codes and ships.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..crypto.keys import KeyMaterial, generate_flow_id
from .errors import GraphConstructionError
from .graph import ForwardingGraph, SliceId
from .node_info import DataMap, NodeInfo, SliceMap, SliceMapEntry


@dataclass
class FlowPlan:
    """Everything the source knows about one anonymous flow.

    Only the source ever holds a complete plan; each relay receives just its
    own :class:`~repro.core.node_info.NodeInfo` (confidentially, as slices).
    """

    graph: ForwardingGraph
    flow_ids: dict[str, int]
    keys: dict[str, KeyMaterial]
    node_infos: dict[str, NodeInfo]
    slots_per_packet: int
    edge_slices: dict[tuple[str, str], list[SliceId]] = field(default_factory=dict)

    @property
    def destination(self) -> str:
        return self.graph.destination


def compile_flow_plan(graph: ForwardingGraph, rng: np.random.Generator) -> FlowPlan:
    """Compile the forwarding graph into per-node routing information."""
    graph.validate()
    d_prime = graph.d_prime
    slots = graph.max_slices_per_edge()

    flow_ids: dict[str, int] = {}
    keys: dict[str, KeyMaterial] = {}
    for relay in graph.relays:
        flow_ids[relay] = generate_flow_id(rng)
        keys[relay] = KeyMaterial.generate(rng)

    # Pre-compute the slice lists for every edge once; they are needed both to
    # build the slice-maps and, by the source, to build the initial packets.
    edge_lists: dict[tuple[str, str], list[SliceId]] = {}
    for parent, child in graph.edges():
        edge_lists[(parent, child)] = graph.edge_slices(parent, child)

    node_infos: dict[str, NodeInfo] = {}
    for relay in graph.relays:
        position = graph.position_of(relay)
        children = graph.children(relay)
        slice_map = _build_slice_map(graph, relay, children, edge_lists, slots)
        data_map = _build_data_map(graph, relay, children)
        node_infos[relay] = NodeInfo(
            next_hop_addresses=children,
            next_hop_flow_ids=[flow_ids[child] for child in children],
            is_receiver=(relay == graph.destination),
            secret_key=keys[relay].key,
            slice_map=slice_map,
            data_map=data_map,
            lane=position,
            num_parents=d_prime,
        )
    return FlowPlan(
        graph=graph,
        flow_ids=flow_ids,
        keys=keys,
        node_infos=node_infos,
        slots_per_packet=slots,
        edge_slices=edge_lists,
    )


def _build_slice_map(
    graph: ForwardingGraph,
    relay: str,
    children: list[str],
    edge_lists: dict[tuple[str, str], list[SliceId]],
    slots: int,
) -> SliceMap:
    """Build the setup-phase shuffle instructions for one relay."""
    stage = graph.stage_of(relay)
    parents = graph.parents(relay)
    parent_index = {parent: index for index, parent in enumerate(parents)}
    entries: list[list[SliceMapEntry]] = []
    for child in children:
        outgoing = edge_lists[(relay, child)]
        child_entries: list[SliceMapEntry] = []
        for slot in range(slots):
            if slot >= len(outgoing):
                child_entries.append(SliceMapEntry.random())
                continue
            owner, k = outgoing[slot]
            carrier_parent = graph.carrier(owner, k, stage - 1)
            incoming = edge_lists[(carrier_parent, relay)]
            try:
                incoming_slot = incoming.index((owner, k))
            except ValueError as exc:  # pragma: no cover - defensive
                raise GraphConstructionError(
                    f"slice {(owner, k)} expected on edge "
                    f"{carrier_parent}->{relay} but not found"
                ) from exc
            child_entries.append(
                SliceMapEntry(parent_index[carrier_parent], incoming_slot)
            )
        entries.append(child_entries)
    return SliceMap(entries=entries)


def _build_data_map(
    graph: ForwardingGraph, relay: str, children: list[str]
) -> DataMap:
    """Build the data-phase forwarding instructions for one relay.

    During the data phase, source-stage node ``p`` injects data slice ``p``
    to every first-stage relay.  We maintain the invariant that the node at
    position ``a`` of stage ``m >= 2`` receives original slice ``(a + p) mod
    d'`` from its parent at position ``p``.  The maps below establish and
    preserve that invariant, which guarantees every node collects all ``d'``
    distinct data slices:

    * a first-stage relay at position ``a`` forwards to the child at position
      ``b`` the slice it received from source-stage node ``(a + b) mod d'``;
    * a deeper relay forwards to the child at position ``b`` the slice it
      received from its parent at position ``b``.
    """
    if not children:
        return DataMap(slice_for_child=[])
    stage = graph.stage_of(relay)
    position = graph.position_of(relay)
    d_prime = graph.d_prime
    if stage == 1:
        mapping = [
            (position + graph.position_of(child)) % d_prime for child in children
        ]
    else:
        mapping = [graph.position_of(child) % d_prime for child in children]
    return DataMap(slice_for_child=mapping)
