"""Flow-plan compiler tests: slice-maps and data-maps must be consistent."""

import numpy as np

from repro.core.graph import build_forwarding_graph
from repro.core.slice_map import compile_flow_plan


def make_plan(path_length=4, d=2, d_prime=None, seed=1):
    d_prime = d if d_prime is None else d_prime
    rng = np.random.default_rng(seed)
    sources = [f"src-{i}" for i in range(d_prime)]
    relays = [f"relay-{i}" for i in range(path_length * d_prime * 3)]
    graph = build_forwarding_graph(
        sources, relays, "destination", path_length, d, d_prime, rng
    )
    return compile_flow_plan(graph, rng)


def test_plan_covers_every_relay():
    plan = make_plan()
    assert set(plan.node_infos) == set(plan.graph.relays)
    assert set(plan.flow_ids) == set(plan.graph.relays)
    assert len(set(plan.flow_ids.values())) == len(plan.flow_ids)


def test_receiver_flag_only_on_destination():
    plan = make_plan(seed=3)
    receivers = [addr for addr, info in plan.node_infos.items() if info.is_receiver]
    assert receivers == [plan.destination]


def test_next_hops_match_graph_children():
    plan = make_plan(seed=4)
    for relay, info in plan.node_infos.items():
        assert info.next_hop_addresses == plan.graph.children(relay)
        assert info.lane == plan.graph.position_of(relay)
        assert info.num_parents == plan.graph.d_prime
        expected_flow_ids = [
            plan.flow_ids[child] for child in plan.graph.children(relay)
        ]
        assert info.next_hop_flow_ids == expected_flow_ids


def test_slice_map_slot_zero_is_childs_own_slice():
    plan = make_plan(path_length=3, d=3, seed=5)
    graph = plan.graph
    for relay, info in plan.node_infos.items():
        stage = graph.stage_of(relay)
        for child_index, child in enumerate(graph.children(relay)):
            entries = info.slice_map.for_child(child_index)
            assert len(entries) == plan.slots_per_packet
            first = entries[0]
            assert not first.is_random
            # The referenced incoming slot must hold the child's own slice.
            parent = graph.parents(relay)[first.parent_index]
            incoming = plan.edge_slices[(parent, relay)]
            owner, _k = incoming[first.slot_index]
            assert owner == child


def test_slice_map_entries_reference_valid_incoming_slots():
    plan = make_plan(path_length=4, d=2, d_prime=3, seed=6)
    graph = plan.graph
    for relay, info in plan.node_infos.items():
        parents = graph.parents(relay)
        for child_index, child in enumerate(graph.children(relay)):
            outgoing = plan.edge_slices[(relay, child)]
            for slot, entry in enumerate(info.slice_map.for_child(child_index)):
                if entry.is_random:
                    assert slot >= len(outgoing)
                    continue
                parent = parents[entry.parent_index]
                incoming = plan.edge_slices[(parent, relay)]
                assert incoming[entry.slot_index] == outgoing[slot]


def test_data_map_gives_each_child_all_distinct_slices():
    plan = make_plan(path_length=5, d=3, seed=7)
    graph = plan.graph
    d_prime = graph.d_prime
    # Simulate the data-slice invariant: source-stage node p injects slice p.
    holdings = {
        relay: {lane: lane for lane in range(d_prime)} for relay in graph.stages[1]
    }
    for stage_index in range(1, graph.num_stages):
        next_holdings: dict[str, dict[int, int]] = {}
        for relay in graph.stages[stage_index]:
            info = plan.node_infos[relay]
            for child_index, child in enumerate(graph.children(relay)):
                parent_lane = info.data_map.for_child(child_index)
                slice_id = holdings[relay][parent_lane]
                next_holdings.setdefault(child, {})[info.lane] = slice_id
        for child, received in next_holdings.items():
            assert len(received) == d_prime
            assert sorted(received.values()) == list(range(d_prime))
        holdings = next_holdings


def test_last_stage_nodes_have_no_children_maps():
    plan = make_plan(seed=8)
    for relay in plan.graph.stages[-1]:
        info = plan.node_infos[relay]
        assert info.next_hop_addresses == []
        assert info.slice_map.num_children == 0
        assert info.data_map.num_children == 0


def test_keys_are_unique_per_relay():
    plan = make_plan(seed=9)
    keys = [info.secret_key for info in plan.node_infos.values()]
    assert len(set(keys)) == len(keys)
