"""End-to-end integration tests of in-process transfers: the real relay
engines on :class:`~repro.overlay.node.SlicingRuntime` over the simulator."""

import numpy as np
import pytest

from repro.core.coder import SliceCoder
from repro.core.integrity import robust_decode
from repro.core.source import Source
from repro.overlay.network import NodeResources, uniform_network
from repro.overlay.node import SimulatedOverlayNetwork, SlicingRuntime


def make_source(d=2, d_prime=None, path_length=3, seed=1):
    d_prime = d if d_prime is None else d_prime
    return Source(
        "alice-home",
        [f"alice-extra-{i}" for i in range(d_prime - 1)],
        d=d,
        d_prime=d_prime,
        path_length=path_length,
        rng=np.random.default_rng(seed),
    )


def run_flow(source, messages, num_relays=40, fail_stage=None, fail_before_setup=False):
    """Set up a flow to "bob", optionally kill one relay of ``fail_stage``
    (before setup, or between setup and data), send ``messages``, and return
    ``(runtime, flow, what bob decoded)``."""
    relays = [f"10.1.0.{i}" for i in range(1, num_relays + 1)]
    network = uniform_network([*source.source_stage, *relays, "bob"], 0.001, NodeResources())
    substrate = SimulatedOverlayNetwork(network, connection_bps=1e9)
    runtime = SlicingRuntime(substrate)
    flow = source.establish_flow(relays, "bob")
    victim = None
    if fail_stage is not None:
        victim = [n for n in flow.graph.stages[fail_stage] if n != "bob"][0]
    if fail_before_setup:
        substrate.fail_node(victim)
    runtime.start_flow(source, flow)
    substrate.sim.run()
    if victim is not None and not fail_before_setup:
        substrate.fail_node(victim)
    runtime.send_messages(source, flow, messages)
    substrate.sim.run()
    delivered = runtime.relays["bob"].delivered_messages(flow.plan.flow_ids["bob"])
    return runtime, flow, delivered


def test_end_to_end_delivery_basic():
    _runtime, _flow, delivered = run_flow(
        make_source(), [b"Let's meet at 5pm", b"bring the docs"]
    )
    assert delivered == {0: b"Let's meet at 5pm", 1: b"bring the docs"}


@pytest.mark.parametrize("d,path_length", [(2, 2), (3, 3), (2, 5), (4, 3)])
def test_end_to_end_various_parameters(d, path_length):
    source = make_source(d=d, path_length=path_length, seed=d * 10 + path_length)
    message = bytes(f"parameters d={d} L={path_length}", "ascii")
    _runtime, _flow, delivered = run_flow(source, [message], num_relays=60)
    assert delivered[0] == message


def test_end_to_end_with_redundancy():
    source = make_source(d=2, d_prime=4, path_length=3, seed=7)
    _runtime, _flow, delivered = run_flow(source, [b"redundant"])
    assert delivered[0] == b"redundant"


def test_large_message_delivery():
    source = make_source(d=3, path_length=3, seed=8)
    payload = bytes(np.random.default_rng(0).integers(0, 256, 20_000, dtype=np.uint8))
    _runtime, _flow, delivered = run_flow(source, [payload])
    assert delivered[0] == payload


def test_only_destination_decodes_the_message():
    runtime, flow, delivered = run_flow(make_source(seed=9), [b"for bob only"])
    assert delivered[0] == b"for bob only"
    for relay_address in flow.graph.relays:
        if relay_address == "bob":
            continue
        relay = runtime.relays[relay_address]
        for flow_id in relay.flows:
            assert relay.delivered_messages(flow_id) == {}


def test_relays_learn_only_parents_and_children():
    runtime, flow, _ = run_flow(make_source(path_length=4, seed=10), [b"topology secrecy"])
    graph = flow.graph
    for relay_address in graph.relays:
        relay = runtime.relays[relay_address]
        flow_id = flow.plan.flow_ids[relay_address]
        info = relay.flows[flow_id].info
        assert info is not None
        # The decoded routing info names only the node's own children.
        assert set(info.next_hop_addresses) == set(graph.children(relay_address))
        known = set(info.next_hop_addresses)
        all_others = set(graph.relays) - {relay_address}
        hidden = all_others - known - set(graph.parents(relay_address))
        # Addresses of non-adjacent relays never appear in what it decoded.
        assert hidden.isdisjoint(known)


def test_eavesdropper_with_partial_slices_cannot_decode():
    runtime, flow, delivered = run_flow(make_source(d=3, path_length=3, seed=11), [b"confidential"])
    assert delivered[0] == b"confidential"
    # An attacker holding what one first-stage relay stored for the message
    # has one slice per source-stage lane; any d-1 of them never decode.
    victim = flow.graph.stages[1][0]
    stored = runtime.relays[victim].flows[flow.plan.flow_ids[victim]].data.blocks(0)
    assert sorted(block.index for block in stored) == list(range(flow.d_prime))
    coder = SliceCoder(flow.d)
    assert not coder.can_decode(stored[: flow.d - 1])
    # All of them decode only the ciphertext under the destination's key.
    assert robust_decode(coder, stored) != b"confidential"


def test_failure_before_setup_kills_flow_without_redundancy():
    source = make_source(d=2, path_length=3, seed=12)
    _runtime, _flow, delivered = run_flow(
        source, [b"will not arrive"], fail_stage=1, fail_before_setup=True
    )
    assert delivered == {}


def test_failure_tolerated_with_redundancy():
    source = make_source(d=2, d_prime=3, path_length=4, seed=13)
    _runtime, _flow, delivered = run_flow(source, [b"survives"], num_relays=60, fail_stage=2)
    assert delivered == {0: b"survives"}
