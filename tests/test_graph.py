"""Forwarding-graph construction tests (Algorithm 1 invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import GraphConstructionError
from repro.core.graph import ForwardingGraph, build_forwarding_graph


def make_graph(path_length=3, d=2, d_prime=None, seed=0):
    d_prime = d if d_prime is None else d_prime
    rng = np.random.default_rng(seed)
    sources = [f"src-{i}" for i in range(d_prime)]
    relays = [f"relay-{i}" for i in range(path_length * d_prime * 3)]
    return build_forwarding_graph(
        sources, relays, "destination", path_length, d, d_prime, rng
    )


def test_basic_structure():
    graph = make_graph(path_length=4, d=2)
    assert graph.num_stages == 4
    assert len(graph.stages) == 5
    assert all(len(stage) == 2 for stage in graph.stages)
    assert graph.destination in graph.relays
    assert 1 <= graph.destination_stage <= 4
    graph.validate()


def test_destination_never_in_source_stage():
    for seed in range(20):
        graph = make_graph(seed=seed)
        assert graph.destination_stage >= 1


def test_parents_and_children():
    graph = make_graph(path_length=3, d=2)
    first_stage_node = graph.stages[1][0]
    assert graph.parents(first_stage_node) == graph.stages[0]
    assert graph.children(first_stage_node) == graph.stages[2]
    last_stage_node = graph.stages[3][0]
    assert graph.children(last_stage_node) == []
    assert graph.parents(graph.stages[0][0]) == []


@given(
    path_length=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=40, deadline=None)
def test_slice_paths_are_vertex_disjoint(path_length, d, extra, seed):
    graph = make_graph(path_length=path_length, d=d, d_prime=d + extra, seed=seed)
    graph.validate()
    for owner in graph.relays:
        paths = [graph.slice_path(owner, k) for k in range(graph.d_prime)]
        for stage in range(graph.stage_of(owner)):
            carriers = [path[stage] for path in paths]
            assert len(set(carriers)) == graph.d_prime


def test_edge_slices_structure():
    graph = make_graph(path_length=4, d=3, seed=2)
    slots = graph.max_slices_per_edge()
    assert slots == graph.num_stages
    for parent, child in graph.edges():
        slices = graph.edge_slices(parent, child)
        # First slice always belongs to the child itself.
        assert slices[0][0] == child
        # One slice per downstream stage, none repeated.
        assert len(slices) == len(set(slices))
        expected = graph.num_stages - graph.stage_of(parent)
        assert len(slices) == expected


def test_edge_slices_rejects_non_adjacent_nodes():
    graph = make_graph(path_length=3, d=2, seed=3)
    with pytest.raises(GraphConstructionError):
        graph.edge_slices(graph.stages[0][0], graph.stages[2][0])


def test_slices_carried_by_counts():
    graph = make_graph(path_length=4, d=2, seed=4)
    relay = graph.stages[1][0]
    carried = [
        (owner, k)
        for stage in graph.stages[1:]
        for owner in stage
        for k in range(graph.d_prime)
        if relay in graph.slice_path(owner, k)
    ]
    # Own d' slices plus one slice per node in each later stage.
    later_nodes = sum(len(stage) for stage in graph.stages[2:])
    assert len(carried) == graph.d_prime + later_nodes


def test_construction_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(GraphConstructionError):
        build_forwarding_graph(["s0"], ["r0"], "dst", path_length=2, d=2, rng=rng)
    with pytest.raises(GraphConstructionError):
        build_forwarding_graph(
            ["s0", "s1"], ["r0", "r1"], "dst", path_length=3, d=2, rng=rng
        )
    with pytest.raises(GraphConstructionError):
        build_forwarding_graph(
            ["s0", "s1"],
            [f"r{i}" for i in range(10)],
            "s0",
            path_length=2,
            d=2,
            rng=rng,
        )


def test_validate_rejects_a_relay_stage_of_the_wrong_size():
    graph = ForwardingGraph(
        stages=[["s0", "s1"], ["a", "b"], ["c"]], destination="c", d=2, d_prime=2
    )
    with pytest.raises(GraphConstructionError, match=r"relay stage has 1 nodes, expected d'=2"):
        graph.validate()


def test_validate_rejects_a_source_stage_of_the_wrong_size():
    graph = ForwardingGraph(
        stages=[["s0", "s1", "s2"], ["a", "b"], ["c", "d"]], destination="c", d=2, d_prime=2
    )
    with pytest.raises(
        GraphConstructionError, match=r"source stage has 3 nodes, expected d'=2"
    ):
        graph.validate()


def test_validate_rejects_slices_that_share_a_carrier():
    # The carrier formula keeps every relay's paths disjoint, so the tables
    # are tampered with: two slices of one stage-3 owner share their stage-1 carrier.
    graph = make_graph(path_length=3, d=2, d_prime=3)
    graph.validate()
    owner = graph.stages[3][1]
    paths = graph._tables[0]
    first, second = paths[owner, 0], paths[owner, 1]
    paths[owner, 1] = (second[0], first[1], *second[2:])
    with pytest.raises(
        GraphConstructionError, match=f"slices of {owner} are not vertex-disjoint at stage 1"
    ):
        graph.validate()


def test_duplicate_node_rejected():
    with pytest.raises(GraphConstructionError):
        ForwardingGraph(
            stages=[["a", "b"], ["c", "a"]], destination="c", d=2, d_prime=2
        )


def test_carrier_out_of_range_slice_index():
    graph = make_graph()
    owner = graph.stages[2][0]
    with pytest.raises(GraphConstructionError):
        graph.carrier(owner, graph.d_prime, 0)
