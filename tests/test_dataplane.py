"""The batched overlay data plane: bit-identity with the per-packet reference
(``tests/oracles/dataplane.py``), event coalescing, the FlowDecoder store,
the runtime's retention windows, and the batched §4.4.1 regeneration against
its per-seq reference."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.coder import CodedBlock, SliceCoder
from repro.core.errors import CodingError, SimulationError
from repro.core.flow_decoder import FlowDecoder
from repro.core.gf import GF
from repro.core.integrity import robust_decode, wrap
from repro.core.node_info import KEY_SIZE, DataMap, NodeInfo, SliceMap
from repro.core.packet import random_padding_slice
from repro.core.relay import FlowState, Relay
from repro.core.source import Source
from repro.overlay.node import DEFAULT_BATCH_CHUNK, SimulatedOverlayNetwork, SlicingRuntime
from repro.overlay.profiles import LAN_PROFILE
from repro.overlay.simulator import EventSimulator

from oracles.dataplane import ScalarSlicingRuntime, reference_flush_data
from strategies import dimension_triples

#: The two planes by name: the shipped one and the per-packet reference.
PLANES = {"scalar": ScalarSlicingRuntime, "batched": SlicingRuntime}

# -- FlowDecoder -------------------------------------------------------------------


def coded_blocks(d=3, payload=b"the quick brown fox jumps", d_prime=None, seed=0):
    coder = SliceCoder(d, d_prime)
    return coder, coder.encode(wrap(payload), np.random.default_rng(seed))


def test_flow_decoder_accumulates_and_rejects_duplicates():
    _, blocks = coded_blocks(d=2)
    decoder = FlowDecoder(2)
    assert decoder.add(0, 0, blocks[0])
    assert not decoder.add(0, 0, blocks[1])  # duplicate (seq, lane)
    assert decoder.add(0, 1, blocks[1])
    assert decoder.count(0) == 2
    assert decoder.lanes(0) == [0, 1]
    assert 0 in decoder and 1 not in decoder
    rebuilt = decoder.blocks(0)
    assert np.array_equal(rebuilt[0].coefficients, blocks[0].coefficients)
    assert np.array_equal(rebuilt[1].payload, blocks[1].payload)


def test_flow_decoder_decode_matches_robust_decode():
    coder, blocks = coded_blocks(d=3, d_prime=5)
    decoder = FlowDecoder(3)
    # Three seqs: clean, churn-padded (garbage first), and insufficient.
    for lane, block in enumerate(blocks[:4]):
        decoder.add(7, lane, block)
    garbage = random_padding_slice(3, blocks[0].payload.shape[0], np.random.default_rng(9))
    decoder.add(8, 0, garbage)
    for lane, block in enumerate(blocks[:3]):
        decoder.add(8, lane + 1, block)
    decoder.add(9, 0, blocks[0])
    decoded = decoder.decode_many([7, 8, 9, 1234])
    reference = SliceCoder(3)
    assert decoded[7] == robust_decode(reference, decoder.blocks(7))
    assert decoded[8] == robust_decode(reference, decoder.blocks(8))
    assert 9 not in decoded and 1234 not in decoded


def test_flow_decoder_add_run_equivalent_to_scalar_adds():
    coder, _ = coded_blocks(d=2)
    rng = np.random.default_rng(3)
    items = []
    for seq in range(10):
        blocks = coder.encode(wrap(b"msg-%d" % seq), rng)
        items.append((seq, blocks[0]))
    run_decoder = FlowDecoder(2)
    accepted = run_decoder.add_run(4, items + items)  # replay the run: all dups
    assert [seq for seq, _ in accepted] == list(range(10))
    loop_decoder = FlowDecoder(2)
    for seq, block in items:
        assert loop_decoder.add(seq, 4, block)
        assert not loop_decoder.add(seq, 4, block)
    for seq in range(10):
        a, b = run_decoder.blocks(seq), loop_decoder.blocks(seq)
        assert len(a) == len(b) == 1
        assert np.array_equal(a[0].payload, b[0].payload)


def test_flow_decoder_retire_and_drop():
    coder, blocks = coded_blocks(d=2)
    decoder = FlowDecoder(2)
    for seq in range(10):
        decoder.add(seq, 0, blocks[0])
    assert decoder.retire_before(6) == 6
    assert decoder.seqs() == [6, 7, 8, 9]
    assert decoder.drop(7) and not decoder.drop(7)
    assert decoder.count(6) == 1 and decoder.count(5) == 0
    # Freed rows are reused for new sequences.
    decoder.add(100, 0, blocks[0])
    assert decoder.count(100) == 1


def test_flow_decoder_mixed_length_slices_fall_back():
    decoder = FlowDecoder(2)
    short = CodedBlock(coefficients=[1, 2], payload=[1, 2, 3])
    longer = CodedBlock(coefficients=[3, 4], payload=[1, 2, 3, 4, 5])
    assert decoder.add(0, 0, short)
    assert decoder.add(0, 1, longer)  # parked, not rejected
    assert not decoder.add(0, 1, longer)  # still a duplicate lane
    assert decoder.count(0) == 2
    assert decoder.lanes(0) == [0, 1]
    assert decoder.decode_many([0]) == {}  # inconsistent lengths cannot decode


def test_flow_decoder_validates_split_factor():
    decoder = FlowDecoder(3)
    bad = CodedBlock(coefficients=[1, 2], payload=[0])
    with pytest.raises(CodingError):
        decoder.add(0, 0, bad)
    with pytest.raises(CodingError):
        decoder.add_run(0, [(0, bad)])


# -- simulator coalescing ------------------------------------------------------------


def test_schedule_keyed_coalesces_same_instant_items():
    sim = EventSimulator()
    drained = []
    sim.schedule(1.0, lambda: sim.schedule_keyed("rx", 2.0, "a", drained.append))
    sim.schedule(1.5, lambda: sim.schedule_keyed("rx", 2.0, "b", drained.append))
    sim.schedule(1.5, lambda: sim.schedule_keyed("rx", 3.0, "c", drained.append))
    sim.run()
    assert drained == [["a", "b"], ["c"]]
    assert sim.batched_events == 1


def test_schedule_keyed_after_fire_starts_a_new_batch():
    sim = EventSimulator()
    drained = []
    sim.schedule_keyed("k", 1.0, "first", drained.append)
    sim.run()
    sim.schedule_keyed("k", 1.0, "late", drained.append)
    sim.run()
    assert drained == [["first"], ["late"]]


# -- transmit_batch -------------------------------------------------------------------


def build_substrate(addresses, bps=1e6, latency=0.01):
    from repro.overlay.network import NodeResources, uniform_network

    network = uniform_network(addresses, latency, NodeResources())
    return SimulatedOverlayNetwork(network, connection_bps=bps)


def test_transmit_batch_matches_per_packet_serialisation_times():
    substrate = build_substrate(["a", "b"], bps=8000.0)
    substrate.per_packet_overhead = 0.0
    received = []
    substrate.transmit_batch("a", "b", [1000, 1000, 1000], received.append)
    substrate.sim.run()
    # 1000 B at 8 kbit/s = 1 s serialisation each; one event, exact times.
    assert len(received) == 1
    assert received[0] == pytest.approx([1.01, 2.01, 3.01])
    assert substrate.stats.packets_sent == 3
    assert substrate.sim.events_processed == 1


def test_transmit_batch_drops_on_dead_endpoints():
    substrate = build_substrate(["a", "b"])
    substrate.fail_node("b")
    calls = []
    substrate.transmit_batch("a", "b", [10, 10], calls.append)
    substrate.sim.run()
    assert calls == [] and substrate.stats.packets_dropped == 2
    substrate.fail_node("a")
    substrate.transmit_batch("a", "c", [10], calls.append)
    assert substrate.stats.packets_dropped == 3


def test_transmit_batch_validates_cpu_list():
    substrate = build_substrate(["a", "b"])
    with pytest.raises(SimulationError):
        substrate.transmit_batch("a", "b", [10, 10], lambda _: None, sender_cpu_seconds=[0.1])


def test_reserve_cpu_sequence_matches_loop_for_any_size():
    substrate = build_substrate(["a", "b"])
    starts = [0.5, 0.1, 2.0, 2.0, 2.1, 5.0, 5.0, 5.0, 6.0, 9.0]
    durations = [0.3] * len(starts)
    expected, free = [], 0.0
    for start, duration in zip(starts, durations):
        free = max(free, start) + duration
        expected.append(free)
    dones = substrate.reserve_cpu_sequence("a", starts, durations)
    assert dones == pytest.approx(expected)
    assert substrate.reserve_cpu_sequence("a", [], []) == []


# -- the batched plane is bit-identical to the scalar reference ----------------------


def run_plane(
    data_plane,
    d=2,
    d_prime=None,
    path_length=3,
    messages=(b"hello world",),
    seed=5,
    fail_stage=None,
    seq_retention=None,
    batch_chunk=DEFAULT_BATCH_CHUNK,
):
    d_prime = d if d_prime is None else d_prime
    rng = np.random.default_rng(seed)
    sources = [f"s{i}" for i in range(d_prime)]
    relays = [f"r{i}" for i in range(path_length * d_prime * 2 + 8)]
    network = LAN_PROFILE.build_network(sources + relays + ["dst"], rng)
    substrate = SimulatedOverlayNetwork(network, connection_bps=30e6)
    runtime = PLANES[data_plane](
        substrate,
        rng=np.random.default_rng(seed + 1),
        seq_retention=seq_retention,
        batch_chunk=batch_chunk,
    )
    source = Source(
        sources[0],
        sources[1:],
        d=d,
        d_prime=d_prime,
        path_length=path_length,
        rng=np.random.default_rng(seed + 2),
    )
    flow = source.establish_flow(relays, "dst")
    progress = runtime.start_flow(source, flow)
    substrate.sim.run()
    if fail_stage is not None:
        stage = flow.graph.stages[1 + (fail_stage % (len(flow.graph.stages) - 1))]
        victims = [node for node in stage if node != "dst"]
        if victims:
            substrate.fail_node(victims[0])
    runtime.send_messages(source, flow, list(messages))
    substrate.sim.run()
    delivered = runtime.relays["dst"].delivered_messages(flow.plan.flow_ids["dst"])
    stats = {
        address: (
            relay.stats.packets_received,
            relay.stats.packets_sent,
            relay.stats.bytes_received,
            relay.stats.bytes_sent,
            relay.stats.flows_decoded,
            relay.stats.messages_delivered,
            relay.stats.regenerated_slices,
        )
        for address, relay in runtime.relays.items()
    }
    return delivered, stats, progress, runtime, flow


@settings(max_examples=12, deadline=None)
@given(
    dims=dimension_triples(),
    num_messages=st.integers(min_value=1, max_value=6),
    message_len=st.integers(min_value=1, max_value=160),
    fail_stage=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    seed=st.integers(min_value=0, max_value=50),
    batch_chunk=st.sampled_from([1, DEFAULT_BATCH_CHUNK]),
)
# The retired dataplane-bench workload: d = d' = 4, L = 5, 64 x 256 B.
@example(
    dims=(4, 4, 5), num_messages=64, message_len=256, fail_stage=None, seed=42,
    batch_chunk=64,
)
def test_batched_plane_bit_identical_to_scalar_reference(
    dims, num_messages, message_len, fail_stage, seed, batch_chunk
):
    """The acceptance property: across d, d', path length and loss patterns,
    the batched data plane delivers byte-identical messages and identical
    RelayStats counters under a shared seed — in fewer simulator events."""
    d, d_prime, path_length = dims
    body = np.random.default_rng(seed).integers(0, 256, message_len, dtype=np.uint8)
    messages = [bytes(body)] * num_messages
    kwargs = dict(
        d=d,
        d_prime=d_prime,
        path_length=path_length,
        messages=messages,
        seed=seed,
        fail_stage=fail_stage,
        batch_chunk=batch_chunk,
    )
    scalar_delivered, scalar_stats, scalar_progress, scalar, _ = run_plane("scalar", **kwargs)
    batched_delivered, batched_stats, batched_progress, batched, _ = run_plane(
        "batched", **kwargs
    )
    assert batched_delivered == scalar_delivered
    assert batched_stats == scalar_stats
    assert set(batched_progress.delivered_messages) == set(
        scalar_progress.delivered_messages
    )
    assert batched.sim.events_processed < scalar.sim.events_processed
    if fail_stage is None:
        assert len(batched_delivered) == num_messages


def test_batched_plane_survives_failure_with_redundancy():
    messages = [b"redundant-payload"] * 3
    delivered, _, _, _, _ = run_plane(
        "batched", d=2, d_prime=4, path_length=3, messages=messages, fail_stage=1, seed=9
    )
    assert len(delivered) == 3


# -- retention windows ----------------------------------------------------------------


@pytest.mark.parametrize("data_plane", ["scalar", "batched"])
def test_seq_retention_bounds_relay_state(data_plane):
    window = 8
    messages = [b"retained-message-payload"] * 40
    delivered, _, _, runtime, flow = run_plane(
        data_plane,
        d=2,
        path_length=3,
        messages=messages,
        seed=11,
        seq_retention=window,
    )
    assert len(delivered) == 40  # retention never cost a delivery
    horizon = 40 - window
    for relay_address in flow.graph.relays:
        state = runtime.relays[relay_address].flows[flow.plan.flow_ids[relay_address]]
        assert len(state.data) <= window
        assert all(seq >= horizon for seq in state.data.seqs())
        assert all(seq >= horizon for seq, _child in state.data_forwarded)
        assert all(seq >= horizon for seq in state.data_flushed)


def test_flow_retention_garbage_collects_idle_flows():
    rng = np.random.default_rng(21)
    sources = ["s0", "s1", "t0", "t1"]
    relays = [f"r{i}" for i in range(14)]
    network = LAN_PROFILE.build_network(sources + relays + ["dst1", "dst2"], rng)
    substrate = SimulatedOverlayNetwork(network, connection_bps=30e6)
    runtime = SlicingRuntime(
        substrate, rng=np.random.default_rng(22), flow_retention_seconds=10.0
    )
    source1 = Source("s0", ["s1"], d=2, path_length=3, rng=np.random.default_rng(23))
    flow1 = source1.establish_flow(relays, "dst1")
    runtime.start_flow(source1, flow1)
    substrate.sim.run()
    runtime.send_messages(source1, flow1, [b"first flow"])
    substrate.sim.run()
    assert runtime.relays["dst1"].delivered_messages(flow1.plan.flow_ids["dst1"])
    # Much later, a second flow's flush sweeps the first flow's idle state.
    substrate.sim.schedule(30.0, lambda: None)
    substrate.sim.run()
    source2 = Source("t0", ["t1"], d=2, path_length=3, rng=np.random.default_rng(24))
    flow2 = source2.establish_flow(relays, "dst2")
    runtime.start_flow(source2, flow2)
    substrate.sim.run()
    runtime.send_messages(source2, flow2, [b"second flow"])
    substrate.sim.run()
    shared = set(flow1.graph.relays) & set(flow2.graph.relays)
    assert shared, "expected the two flows to share relays with this seed"
    for relay_address in shared:
        assert flow1.plan.flow_ids[relay_address] not in runtime.relays[relay_address].flows


def test_runtime_validates_parameters():
    substrate = build_substrate(["a"])
    with pytest.raises(SimulationError):
        SlicingRuntime(substrate, seq_retention=0)
    with pytest.raises(SimulationError):
        SlicingRuntime(substrate, batch_chunk=0)


# -- regeneration (§4.4.1): the batched flush against the per-seq reference ----------

FLOW_ID = 7
SLICE_BYTES = 10


def regeneration_relay(d, children, regenerate=True, seed=0):
    """A relay whose flow is decoded and whose data store is empty."""
    relay = Relay("relay", rng=np.random.default_rng(seed), regenerate_redundancy=regenerate)
    state = FlowState(flow_id=FLOW_ID, d=d, coding_field=relay.field)
    state.info = NodeInfo(
        next_hop_addresses=[f"child-{index}" for index in range(children)],
        next_hop_flow_ids=[100 + index for index in range(children)],
        is_receiver=False,
        secret_key=bytes(KEY_SIZE),
        slice_map=SliceMap(),
        data_map=DataMap(list(range(children))),
        lane=1,
    )
    relay.flows[FLOW_ID] = state
    return relay


def random_block(rng, d, payload_bytes=SLICE_BYTES):
    return CodedBlock(
        coefficients=rng.integers(0, 256, d, dtype=np.uint8),
        payload=rng.integers(0, 256, payload_bytes, dtype=np.uint8),
    )


def test_flush_ignores_a_length_clashing_slice():
    """A 12 B slice beside a 10 B one for one seq used to make ``recombine``
    raise out of the flush; regeneration now combines only the seq's plane
    and needs ``d`` slices there."""
    rng = np.random.default_rng(1)
    relay = regeneration_relay(d=2, children=3)
    data = relay.flows[FLOW_ID].data
    assert data.add(0, 0, random_block(rng, 2))
    assert data.add(0, 1, random_block(rng, 2, payload_bytes=12))  # parked extra
    assert data.count(0) == 2
    assert relay.flush_data_many(FLOW_ID, [0]) == []
    assert data.plane_count(0) == 1
    assert relay.stats.regenerated_slices == 0
    # With d slices in the plane the extra is simply left out of the sum.
    assert data.add(1, 0, random_block(rng, 2))
    assert data.add(1, 1, random_block(rng, 2))
    assert data.add(1, 2, random_block(rng, 2, payload_bytes=12))
    outgoing = relay.flush_data_many(FLOW_ID, [1])
    assert [packet.destination_address for packet in outgoing] == [
        "child-0", "child-1", "child-2"
    ]
    assert all(packet.own_slice.payload.shape == (SLICE_BYTES,) for packet in outgoing)
    assert relay.stats.regenerated_slices == 3


@st.composite
def regeneration_states(draw):
    """A decoded relay's data store, flush markers and a burst to flush."""
    d = draw(st.integers(1, 3))
    d_prime = d + draw(st.integers(0, 2))
    children = draw(st.integers(0, 4))
    relay = regeneration_relay(
        d,
        children,
        regenerate=draw(st.integers(0, 3)) > 0,
        seed=draw(st.integers(0, 2**16)),
    )
    state = relay.flows[FLOW_ID]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # Stale rows: fill seqs past the burst to d' + 1 slots, then drop them,
    # so the burst's seqs reuse rows whose unused slots hold old slices.
    for seq in range(100, 100 + draw(st.integers(0, 3))):
        for lane in range(d_prime + 1):
            state.data.add(seq, lane, random_block(rng, d))
        state.data.drop(seq)
    seqs = list(range(draw(st.integers(1, 5))))
    for seq in seqs:
        count = draw(st.integers(0, d_prime + 1))
        for lane in draw(st.permutations(range(d_prime + 1)))[:count]:
            state.data.add(seq, lane, random_block(rng, d))
        if count and draw(st.booleans()):
            state.data.add(seq, d_prime + 1, random_block(rng, d, SLICE_BYTES + 2))
        for child in range(children):
            if draw(st.integers(0, 3)) == 0:
                state.data_forwarded.add((seq, child))
        if draw(st.integers(0, 4)) == 0:
            state.data_flushed.add(seq)
    burst = draw(st.lists(st.sampled_from([*seqs, 200]), min_size=1, max_size=8))
    return relay, burst


@settings(max_examples=200, deadline=None)
@given(regeneration_states())
def test_batched_flush_matches_per_seq_reference(case):
    """One product per burst draws, forwards, counts and emits exactly what
    one ``recombine`` per regenerated slice did."""
    relay, burst = case
    batched, reference = (copy.deepcopy(relay, {id(GF): GF}) for _ in range(2))
    got = batched.flush_data_many(FLOW_ID, burst)
    want = reference_flush_data(reference, FLOW_ID, burst)
    assert [(p.destination_address, p.to_bytes()) for p in got] == [
        (p.destination_address, p.to_bytes()) for p in want
    ]
    ours, theirs = batched.flows[FLOW_ID], reference.flows[FLOW_ID]
    assert ours.data_forwarded == theirs.data_forwarded
    assert ours.data_flushed == theirs.data_flushed
    assert batched.stats == reference.stats
    assert batched.rng.bit_generator.state == reference.rng.bit_generator.state
