"""Unit tests for the source utility and relay engine (no overlay involved)."""

import numpy as np
import pytest

from repro.core.errors import GraphConstructionError, ProtocolError
from repro.core.packet import PacketKind
from repro.core.relay import Relay
from repro.core.source import Source, data_nonce
from repro.crypto.symmetric import StreamCipher


def make_source(d=2, d_prime=None, path_length=3, seed=1):
    d_prime = d if d_prime is None else d_prime
    return Source(
        "source-addr",
        [f"pseudo-{i}" for i in range(d_prime - 1)],
        d=d,
        d_prime=d_prime,
        path_length=path_length,
        rng=np.random.default_rng(seed),
    )


def relay_pool(count=40):
    return [f"relay-{i}" for i in range(count)]


def test_source_requires_matching_pseudo_sources():
    with pytest.raises(GraphConstructionError):
        Source("s", [], d=2, path_length=3)
    with pytest.raises(ProtocolError):
        Source("s", ["p"], d=3, d_prime=2, path_length=3)


def test_setup_packets_cover_every_source_child_pair():
    source = make_source(d=2, path_length=4)
    flow = source.establish_flow(relay_pool(), "destination")
    packets = flow.setup_packets
    assert len(packets) == flow.d_prime * flow.d_prime
    senders = {p.source_address for p in packets}
    receivers = {p.destination_address for p in packets}
    assert senders == set(flow.graph.source_stage)
    assert receivers == set(flow.graph.stages[1])
    # Constant packet format: every packet has slots_per_packet equal slices.
    sizes = {len(p.slices) for p in packets}
    assert sizes == {flow.plan.slots_per_packet}
    assert all(p.kind == PacketKind.SETUP for p in packets)


def test_setup_packets_use_child_flow_ids_and_lanes():
    source = make_source(d=3, path_length=3, seed=2)
    flow = source.establish_flow(relay_pool(60), "destination")
    for packet in flow.setup_packets:
        assert packet.flow_id == flow.plan.flow_ids[packet.destination_address]
        assert packet.lane == flow.graph.source_stage.index(packet.source_address)


def test_data_packets_structure_and_encryption():
    source = make_source(d=2, path_length=3, seed=3)
    flow = source.establish_flow(relay_pool(), "destination")
    message = b"meet at the usual place"
    batches = source.make_data_packets_batch(flow, [message])
    assert len(batches) == flow.d_prime * flow.d_prime
    assert all(b.kind == PacketKind.DATA for b in batches)
    assert all(b.seqs == [0] for b in batches)
    # The ciphertext must not contain the plaintext.
    for batch in batches:
        assert message not in batch.to_bytes()
    # Sequence numbers advance automatically.
    second = source.make_data_packets_batch(flow, [b"second"])
    assert all(b.seqs == [1] for b in second)


def test_data_nonce_is_deterministic_per_sequence():
    assert data_nonce(5) == data_nonce(5)
    assert data_nonce(5) != data_nonce(6)


def test_relay_decodes_info_and_forwards_setup():
    source = make_source(d=2, path_length=3, seed=4)
    flow = source.establish_flow(relay_pool(), "destination")
    first_stage = flow.graph.stages[1]
    target = first_stage[0]
    relay = Relay(target, rng=np.random.default_rng(0))
    incoming = [p for p in flow.setup_packets if p.destination_address == target]
    outputs = []
    for packet in incoming:
        outputs.extend(relay.handle_packets([packet]))
    flow_id = flow.plan.flow_ids[target]
    state = relay.flows[flow_id]
    assert state.decoded
    info = state.info
    assert info.next_hop_addresses == flow.graph.children(target)
    # One outgoing setup packet per child, stamped with the child's flow id.
    assert {p.destination_address for p in outputs} == set(info.next_hop_addresses)
    for packet in outputs:
        assert packet.flow_id == flow.plan.flow_ids[packet.destination_address]
        assert packet.lane == info.lane
        assert len(packet.slices) == flow.plan.slots_per_packet


def test_relay_waits_for_all_parents_before_forwarding():
    source = make_source(d=2, d_prime=3, path_length=3, seed=5)
    flow = source.establish_flow(relay_pool(60), "destination")
    target = flow.graph.stages[1][1]
    relay = Relay(target, rng=np.random.default_rng(1))
    incoming = [p for p in flow.setup_packets if p.destination_address == target]
    outputs = relay.handle_packets([incoming[0]])
    outputs += relay.handle_packets([incoming[1]])
    assert outputs == []  # decoded (d=2) but still waiting for parent 3 of 3
    outputs = relay.handle_packets([incoming[2]])
    assert outputs  # now forwards


def test_flush_setup_pads_missing_parent():
    source = make_source(d=2, d_prime=3, path_length=3, seed=6)
    flow = source.establish_flow(relay_pool(60), "destination")
    target = flow.graph.stages[1][0]
    relay = Relay(target, rng=np.random.default_rng(2))
    incoming = [p for p in flow.setup_packets if p.destination_address == target]
    for packet in incoming[:2]:
        relay.handle_packets([packet])
    flow_id = flow.plan.flow_ids[target]
    outputs = relay.flush_setup(flow_id)
    assert outputs
    # Flushing twice must not duplicate traffic.
    assert relay.flush_setup(flow_id) == []


def test_duplicate_packets_are_ignored():
    source = make_source(d=2, path_length=3, seed=7)
    flow = source.establish_flow(relay_pool(), "destination")
    target = flow.graph.stages[1][0]
    relay = Relay(target, rng=np.random.default_rng(3))
    incoming = [p for p in flow.setup_packets if p.destination_address == target]
    relay.handle_packets([incoming[0]])
    assert relay.handle_packets([incoming[0]]) == []
    assert relay.stats.packets_received == 2


def test_destination_decrypts_data_with_its_key():
    source = make_source(d=2, path_length=2, seed=8)
    flow = source.establish_flow(relay_pool(), "destination")
    # Verify the data encryption end to end at the crypto level.
    message = b"data phase ciphertext"
    flow.next_sequence = 9
    batches = source.make_data_packets_batch(flow, [message])
    cipher = StreamCipher(flow.destination_key)
    from repro.core.coder import CodedBlock, SliceCoder
    from repro.core.integrity import robust_decode

    blocks = [
        CodedBlock(b.coefficients[0], b.payloads[0])
        for b in batches if b.destination_address == flow.graph.stages[1][0]
    ]
    ciphertext = robust_decode(SliceCoder(flow.d), blocks)
    assert cipher.decrypt(ciphertext, data_nonce(9)) == message


def test_relay_garbage_collect():
    relay = Relay("addr", rng=np.random.default_rng(4))
    source = make_source(seed=9)
    flow = source.establish_flow(relay_pool(), "destination")
    target = flow.graph.stages[1][0]
    relay.address = target
    for packet in flow.setup_packets:
        if packet.destination_address == target:
            relay.handle_packets([packet], now=10.0)
    assert relay.flows
    flow_count = len(relay.flows)
    assert relay.garbage_collect(before=5.0) == 0
    assert relay.garbage_collect(before=20.0) == flow_count
    assert relay.flows == {}
