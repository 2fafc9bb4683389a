"""The batched overlay data plane: bit-identity with the per-packet reference
(``tests/oracles/dataplane.py``), event coalescing, the FlowDecoder store,
the runtime's retention windows, and the batched §4.4.1 regeneration against
its per-seq reference."""

import functools
import gc

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
from repro.core.packet import PacketBatch, random_padding_slice
from repro.core.relay import DEFAULT_SEQ_RETENTION, FlowState, Relay
from repro.core.source import Source
from repro.overlay.node import (
    DEFAULT_FLOW_RETENTION_SECONDS,
    SimulatedOverlayNetwork,
    SlicingRuntime,
)
from repro.overlay.profiles import LAN_PROFILE
from repro.overlay.simulator import EventSimulator

from oracles.dataplane import (
    RowFlowDecoder,
    ScalarFlowState,
    ScalarSlicingRuntime,
    batch_packets,
    reference_flush_data,
)
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


def column_batch(items, lane=4):
    """A one-lane data batch of ``(seq, block)`` pairs."""
    return PacketBatch(
        flow_id=1,
        d=items[0][1].d,
        lane=lane,
        seqs=[seq for seq, _ in items],
        coefficients=np.stack([block.coefficients for _, block in items]),
        payloads=np.stack([block.payload for _, block in items]),
    )


def test_flow_decoder_add_run_equivalent_to_scalar_adds():
    coder, _ = coded_blocks(d=2)
    rng = np.random.default_rng(3)
    items = []
    for seq in range(10):
        blocks = coder.encode(wrap(b"msg-%d" % seq), rng)
        items.append((seq, blocks[0]))
    run_decoder = FlowDecoder(2)
    batch = column_batch(items + items)  # replay the run: all dups
    accepted = run_decoder.add_run(4, batch)
    assert [batch.seqs[row] for row in accepted] == list(range(10))
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
        decoder.add_run(0, column_batch([(0, bad)], lane=0))


STORE_LANES = 5
STORE_MESSAGE = 30


@functools.lru_cache(maxsize=4096)
def store_slice(d, seq, lane, kind):
    """One slice for ``(seq, lane)``: a true coded slice, garbage, or a clashing length.

    True slices of a seq come from one encode of its message, so any ``d``
    independent ones decode it.
    """
    coder = SliceCoder(d, STORE_LANES)
    message = wrap(bytes([seq % 256]) * STORE_MESSAGE)
    true = coder.encode(message, np.random.default_rng(seq))[lane % STORE_LANES]
    if kind == "true":
        return true
    width = true.payload.shape[0] + (2 if kind == "clash" else 0)
    return random_padding_slice(d, width, np.random.default_rng((seq, lane, width)))


@st.composite
def store_operations(draw):
    """A split factor and a list of store operations on one flow.

    ``add_run`` batches are contiguous, gapped, unsorted or repeat seqs,
    partly duplicate what is stored, some clash in length, and a batch may
    come again under another lane; ``retire_before`` is interleaved, later
    seqs fall below the retired base and some lie more than 64 ahead of it.
    """
    d = draw(st.integers(1, 3))
    operations = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["run", "run", "run", "rows", "again", "retire"]))
        if kind == "again":  # the previous batch object once more, under any lane
            operations.append((kind, draw(st.integers(0, STORE_LANES))))
            continue
        if kind == "run":
            start, length = draw(st.integers(0, 150)), draw(st.integers(1, 20))
            seqs = list(range(start, start + length))
        elif kind == "rows":
            seqs = draw(st.lists(st.integers(0, 150), min_size=1, max_size=12))
        else:
            operations.append((kind, draw(st.integers(0, 160))))
            continue
        lane = draw(st.integers(0, STORE_LANES))
        width = draw(st.sampled_from(["normal", "normal", "normal", "clash"]))
        rows = [
            "clash" if width == "clash" else draw(st.sampled_from(["true", "true", "garbage"]))
            for _ in seqs
        ]
        operations.append(("add", lane, seqs, rows))
    return d, operations


def store_batch(d, lane, seqs, rows):
    blocks = [store_slice(d, seq, lane, row) for seq, row in zip(seqs, rows)]
    coefficients, payloads = np.stack([b.coefficients for b in blocks]), np.stack(
        [b.payload for b in blocks]
    )
    coefficients.flags.writeable = payloads.flags.writeable = False
    return PacketBatch(1, d, lane, list(seqs), coefficients, payloads)


def assert_stores_equal(ours, theirs, probe):
    assert ours.seqs() == theirs.seqs() and len(ours) == len(theirs)
    for seq in probe:
        assert (seq in ours) == (seq in theirs), seq
        assert ours.count(seq) == theirs.count(seq), seq
        assert ours.plane_count(seq) == theirs.plane_count(seq), seq
        assert ours.lanes(seq) == theirs.lanes(seq), seq
        mine, reference = ours.blocks(seq), theirs.blocks(seq)
        assert [b.to_bytes() for b in mine] == [b.to_bytes() for b in reference], seq
        assert [b.index for b in mine] == [b.index for b in reference], seq


@settings(max_examples=150, deadline=None)
@given(store_operations(), st.randoms(use_true_random=False))
def test_flow_decoder_matches_the_per_row_reference_store(case, shuffle):
    """The bitmask store accepts, counts, orders, decodes and recombines
    exactly what the per-row reference store does, whatever the batches."""
    d, operations = case
    ours, theirs = FlowDecoder(d), RowFlowDecoder(d)
    touched = {seq for operation in operations if operation[0] == "add" for seq in operation[2]}
    probe = sorted(touched | {0, 151, 200})
    batch = None
    for operation in operations:
        if operation[0] == "add" or operation[0] == "again" and batch is not None:
            lane = operation[1]
            batch = store_batch(d, *operation[1:]) if operation[0] == "add" else batch
            assert list(ours.add_run(lane, batch)) == theirs.add_run(lane, batch)
        elif operation[0] == "retire":
            assert ours.retire_before(operation[1]) == theirs.retire_before(operation[1])
        assert_stores_equal(ours, theirs, probe)
    wanted = list(probe)
    shuffle.shuffle(wanted)
    assert ours.decode_many(wanted) == theirs.decode_many(wanted)
    rng = np.random.default_rng(len(operations))
    items = [
        (seq, GF.random_elements(theirs.plane_count(seq), rng))
        for seq in wanted
        if theirs.plane_count(seq)
    ]
    items += items[: len(items) // 2]
    got, want = ours.recombine_many(items), theirs.recombine_many(items)
    assert len(got) == len(want) == len(items)
    for mine, reference in zip(got, want):
        assert mine.shape == reference.shape and np.array_equal(mine, reference)


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


# -- transmit_blobs -------------------------------------------------------------------


def build_substrate(addresses, bps=1e6, latency=0.01):
    from repro.overlay.network import NodeResources, uniform_network

    network = uniform_network(addresses, latency, NodeResources())
    return SimulatedOverlayNetwork(network, connection_bps=bps)


def test_transmit_blobs_matches_per_packet_serialisation_times():
    substrate = build_substrate(["a", "b"], bps=8000.0)
    substrate.per_packet_overhead = 0.0
    received = []
    blobs = [bytes(1000)] * 3
    substrate.transmit_blobs("a", "b", blobs, lambda cells, arrivals: received.append(arrivals))
    substrate.sim.run()
    # 1000 B at 8 kbit/s = 1 s serialisation each; one event, exact times.
    assert len(received) == 1
    assert received[0] == pytest.approx([1.01, 2.01, 3.01])
    assert substrate.stats.packets_sent == 3
    assert substrate.sim.events_processed == 1


def test_transmit_blobs_drops_on_dead_endpoints():
    substrate = build_substrate(["a", "b"])
    substrate.fail_node("b")
    calls = []
    substrate.transmit_blobs("a", "b", [bytes(10)] * 2, lambda *call: calls.append(call))
    substrate.sim.run()
    assert calls == [] and substrate.stats.packets_dropped == 2
    substrate.fail_node("a")
    substrate.transmit_blobs("a", "c", [bytes(10)], lambda *call: calls.append(call))
    assert substrate.stats.packets_dropped == 3


def test_transmit_blobs_validates_cpu_list():
    substrate = build_substrate(["a", "b"])
    with pytest.raises(SimulationError, match="one CPU cost per packet"):
        substrate.transmit_blobs(
            "a", "b", [bytes(10)] * 2, lambda *_: None, sender_cpu_seconds=[0.1]
        )


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
    bursts=1,
):
    d_prime = d if d_prime is None else d_prime
    rng = np.random.default_rng(seed)
    sources = [f"s{i}" for i in range(d_prime)]
    relays = [f"r{i}" for i in range(path_length * d_prime * 2 + 8)]
    network = LAN_PROFILE.build_network(sources + relays + ["dst"], rng)
    substrate = SimulatedOverlayNetwork(network, connection_bps=30e6)
    runtime = PLANES[data_plane](substrate, rng=np.random.default_rng(seed + 1))
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
    size = -(-len(messages) // bursts)
    for start in range(0, len(messages), size):
        runtime.send_messages(source, flow, list(messages[start : start + size]))
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


@st.composite
def burst_lengths(draw, max_messages: int = 24):
    """One length per message, drawn from two values.

    A burst with both lengths reaches the source's cut into equal-length runs,
    and past 16 messages the runtime's chunk boundary falls inside or between
    those runs.
    """
    lengths = (draw(st.integers(1, 160)), draw(st.integers(1, 160)))
    return draw(st.lists(st.sampled_from(lengths), min_size=1, max_size=max_messages))


@settings(max_examples=12, deadline=None)
@given(
    dims=dimension_triples(),
    lengths=burst_lengths(),
    fail_stage=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    seed=st.integers(min_value=0, max_value=50),
)
# The retired dataplane-bench workload: d = d' = 4, L = 5, 64 x 256 B.
@example(dims=(4, 4, 5), lengths=[256] * 64, fail_stage=None, seed=42)
# Two runs, the 16-packet chunk boundary inside the second, then exactly
# between them; and runs of one alternating.
@example(dims=(2, 3, 3), lengths=[100] * 10 + [40] * 10, fail_stage=None, seed=3)
@example(dims=(2, 3, 3), lengths=[100] * 16 + [40] * 4, fail_stage=1, seed=4)
@example(dims=(3, 3, 2), lengths=[7, 90] * 9, fail_stage=None, seed=5)
def test_batched_plane_bit_identical_to_scalar_reference(dims, lengths, fail_stage, seed):
    """The acceptance property: across d, d', path length, loss patterns and
    mixed-length bursts, the batched data plane delivers byte-identical
    messages and identical RelayStats counters under a shared seed — in fewer
    simulator events."""
    d, d_prime, path_length = dims
    num_messages = len(lengths)
    body = np.random.default_rng(seed).integers(0, 256, max(lengths), dtype=np.uint8)
    messages = [bytes(body[:length]) for length in lengths]
    kwargs = dict(
        d=d,
        d_prime=d_prime,
        path_length=path_length,
        messages=messages,
        seed=seed,
        fail_stage=fail_stage,
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


@settings(max_examples=10, deadline=None)
@given(
    dims=dimension_triples(),
    bursts=st.integers(2, 4),
    fail_stage=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    seed=st.integers(min_value=0, max_value=50),
)
@example(dims=(2, 3, 3), bursts=3, fail_stage=1, seed=4)
def test_batched_plane_matches_scalar_reference_across_the_retention_boundary(
    dims, bursts, fail_stage, seed
):
    """With an 8-seq window, later bursts land on relays that have retired
    earlier seqs, and regenerated slices can arrive below a relay's base:
    both planes still deliver, count, mark and keep the same seqs."""
    d, d_prime, path_length = dims
    messages = [b"retained-%02d" % index for index in range(30)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.overlay.node.DEFAULT_SEQ_RETENTION", 8)
        runs = {
            plane: run_plane(plane, d=d, d_prime=d_prime, path_length=path_length,
                             messages=messages, seed=seed, fail_stage=fail_stage, bursts=bursts)
            for plane in PLANES
        }
    (scalar_delivered, scalar_stats, _, scalar, flow), (batched_delivered, batched_stats, _,
                                                       batched, _) = runs.values()
    assert batched_delivered == scalar_delivered
    assert batched_stats == scalar_stats
    for address in flow.graph.relays:
        if address not in scalar.relays:
            continue
        ours = batched.relays[address].flows.get(flow.plan.flow_ids[address])
        theirs = scalar.relays[address].flows.get(flow.plan.flow_ids[address])
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours.retired_before == theirs.retired_before
            assert ours.markers() == theirs.markers()
            assert ours.data.seqs() == theirs.data.seqs()


def test_batched_plane_survives_failure_with_redundancy():
    messages = [b"redundant-payload"] * 3
    delivered, _, _, _, _ = run_plane(
        "batched", d=2, d_prime=4, path_length=3, messages=messages, fail_stage=1, seed=9
    )
    assert len(delivered) == 3


# -- retention windows ----------------------------------------------------------------


@pytest.mark.parametrize("data_plane", ["scalar", "batched"])
def test_seq_retention_bounds_relay_state(data_plane, monkeypatch):
    # The runtime reads the window when it retires, so a small one stands in
    # for DEFAULT_SEQ_RETENTION without driving a thousand messages.
    window = 8
    monkeypatch.setattr("repro.overlay.node.DEFAULT_SEQ_RETENTION", window)
    messages = [b"retained-message-payload"] * 40
    delivered, _, _, runtime, flow = run_plane(
        data_plane, d=2, path_length=3, messages=messages, seed=11
    )
    assert len(delivered) == 40  # retention never cost a delivery
    horizon = 40 - window
    for relay_address in flow.graph.relays:
        state = runtime.relays[relay_address].flows[flow.plan.flow_ids[relay_address]]
        assert len(state.data) <= window
        assert all(seq >= horizon for seq in state.data.seqs())
        forwarded, flushed = state.markers()
        assert all(seq >= horizon for seq, _child in forwarded)
        assert all(seq >= horizon for seq in flushed)
        if data_plane == "batched":
            # A received batch stays referenced only while a row it fed is live.
            runs = reachable(state.data, PacketBatch)
            assert runs and all(max(run.seqs) >= horizon for run in runs)


def reachable(root, kind, skip=()):
    """Every ``kind`` instance reachable from ``root``'s attributes and containers.

    Walks instances, dicts, lists and tuples, not classes, modules, functions
    or ``skip`` instances, so it finds what an object holds without naming
    its fields.
    """
    found, seen, stack = [], set(), [root]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (type, type(gc), type(reachable), *skip)):
            continue
        seen.add(id(item))
        if isinstance(item, kind):
            found.append(item)
        if not isinstance(item, np.ndarray):
            stack.extend(gc.get_referents(item))
    return found


def test_a_forward_only_relay_holds_no_payload_bytes_of_its_own():
    # Relays keep the batches they receive by reference: a relay that only
    # forwards copies no slice, so every uint8 array its decoder reaches is a
    # read-only column some sender built.
    messages = [bytes([seq]) * 300 for seq in range(20)]
    delivered, stats, _, runtime, flow = run_plane(
        "batched", d=2, d_prime=3, path_length=3, messages=messages, seed=5
    )
    assert len(delivered) == 20
    forward_only = [
        address for address in flow.graph.relays
        if address != "dst" and stats[address][6] == 0  # regenerated_slices
    ]
    assert forward_only
    for address in forward_only:
        decoder = runtime.relays[address].flows[flow.plan.flow_ids[address]].data
        assert reachable(decoder, PacketBatch)
        # The field's tables and the coder are shared code, not slices.
        held = reachable(decoder, np.ndarray, skip=(type(GF), SliceCoder))
        owned = [array for array in held if array.dtype == np.uint8 and array.flags.writeable]
        assert sum(array.nbytes for array in owned) == 0


def test_a_slice_for_a_retired_seq_is_stored_and_forwarded_but_not_delivered_again(
    monkeypatch,
):
    # What a relay does with a late slice below its retention horizon: it has
    # forgotten the seq, so it stores the slice and forwards it again; the
    # destination keeps its delivered plaintexts, so nothing is delivered twice.
    window = 8
    monkeypatch.setattr("repro.overlay.node.DEFAULT_SEQ_RETENTION", window)
    messages = [b"retained-message-payload"] * 40
    delivered, _, _, runtime, flow = run_plane(
        "batched", d=2, path_length=3, messages=messages, seed=11
    )
    rng = np.random.default_rng(0)
    late = 3
    forwarders = 0
    for relay_address in flow.graph.relays:
        relay = runtime.relays[relay_address]
        state = relay.flows[flow.plan.flow_ids[relay_address]]
        assert state.retired_before == 40 - window > late
        assert late not in state.data and late not in state.markers()[1]
        info = state.info
        lane = info.data_map.for_child(0) if info.next_hop_addresses else 0
        block_len = state.data.blocks(state.data.seqs()[0])[0].payload.shape[0]
        delivered_before = relay.stats.messages_delivered
        outgoing = []
        for row_lane in (lane, lane + 1):
            block = random_padding_slice(2, block_len, rng)
            outgoing.append(relay.handle_packets([PacketBatch(
                flow.plan.flow_ids[relay_address], 2, row_lane, [late],
                block.coefficients[None], block.payload[None],
            )]))
        if info.next_hop_addresses:
            forwarders += 1
            assert [item.seqs for item in outgoing[0]] == [[late]]
            assert outgoing[0][0].destination_address == info.next_hop_addresses[0]
        assert state.data.count(late) == 2 and state.retired_before == 40 - window
        assert relay.stats.messages_delivered == delivered_before
    assert forwarders > 0
    destination = runtime.relays["dst"].delivered_messages(flow.plan.flow_ids["dst"])
    assert destination == delivered and len(destination) == 40


class FullScanRuntime(SlicingRuntime):
    """Records deliveries by rescanning every seq the destination delivered."""

    def _record_delivery(self, relay, flow, progress, address):
        state = relay.flows.get(flow.plan.flow_ids[address])
        if address != flow.destination or state is None:
            return
        for seq, message in state.delivered.items():
            if seq not in progress.delivered_messages:
                progress.delivered_messages[seq] = self.sim.now
                progress.delivered_bytes += len(message)
                if progress.first_delivery_at is None:
                    progress.first_delivery_at = self.sim.now
                progress.last_delivery_at = self.sim.now


@pytest.mark.parametrize("fail_stage", [None, 1])
def test_delivery_record_reads_only_new_deliveries_and_matches_a_full_scan(
    fail_stage, monkeypatch
):
    monkeypatch.setitem(PLANES, "full-scan", FullScanRuntime)
    messages = [b"recorded-%02d" % index for index in range(40)]
    runs = [
        run_plane(plane, d=2, d_prime=3, messages=messages, seed=7, fail_stage=fail_stage,
                  bursts=4)[2]
        for plane in ("batched", "full-scan")
    ]
    tail, full = runs
    assert list(tail.delivered_messages.items()) == list(full.delivered_messages.items())
    assert len(tail.delivered_messages) == 40
    assert (tail.delivered_bytes, tail.first_delivery_at, tail.last_delivery_at) == (
        full.delivered_bytes, full.first_delivery_at, full.last_delivery_at
    )


def test_flow_retention_garbage_collects_idle_flows():
    rng = np.random.default_rng(21)
    sources = ["s0", "s1", "t0", "t1"]
    relays = [f"r{i}" for i in range(14)]
    network = LAN_PROFILE.build_network(sources + relays + ["dst1", "dst2"], rng)
    substrate = SimulatedOverlayNetwork(network, connection_bps=30e6)
    runtime = SlicingRuntime(substrate, rng=np.random.default_rng(22))
    source1 = Source("s0", ["s1"], d=2, path_length=3, rng=np.random.default_rng(23))
    flow1 = source1.establish_flow(relays, "dst1")
    runtime.start_flow(source1, flow1)
    substrate.sim.run()
    runtime.send_messages(source1, flow1, [b"first flow"])
    substrate.sim.run()
    assert runtime.relays["dst1"].delivered_messages(flow1.plan.flow_ids["dst1"])
    # Much later, a second flow's flush sweeps the first flow's idle state.
    substrate.sim.schedule(DEFAULT_FLOW_RETENTION_SECONDS + 30.0, lambda: None)
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


# -- regeneration (§4.4.1): the batched flush against the per-seq reference ----------

FLOW_ID = 7
SLICE_BYTES = 10


def regeneration_relay(d, children, regenerate=True, seed=0, state_class=FlowState):
    """A relay whose flow is decoded and whose data store is empty."""
    relay = Relay("relay", rng=np.random.default_rng(seed), regenerate_redundancy=regenerate)
    state = state_class(flow_id=FLOW_ID, d=d, coding_field=relay.field)
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
    assert [batch.destination_address for batch in outgoing] == [
        "child-0", "child-1", "child-2"
    ]
    assert all(batch.payloads.shape == (1, SLICE_BYTES) for batch in outgoing)
    assert relay.stats.regenerated_slices == 3


def set_markers(state, forwarded, flushed):
    """Mark ``(seq, child)`` pairs forwarded and seqs flushed, directly.

    No protocol operation sets a marker without also storing or
    regenerating a slice, so this goes through the shipped store's marking
    calls, or writes a :class:`ScalarFlowState`'s sets.
    """
    if isinstance(state, ScalarFlowState):
        state.forwarded_pairs.update(forwarded)
        state.flushed_seqs.update(flushed)
        return
    for seq, child in forwarded:
        state.data.mark_forwarded(child, state.data.seq_mask([seq]))
    state.data.mark_flushed(state.data.seq_mask(flushed))


def test_a_batch_goes_on_only_with_the_rows_its_child_has_not_had():
    """Seqs already regenerated for a child are cut out of a later batch on its lane."""
    rng = np.random.default_rng(4)
    relay = regeneration_relay(d=2, children=2)
    data = relay.flows[FLOW_ID].data
    for seq in range(4):
        for lane in (5, 6):
            assert data.add(seq, lane, random_block(rng, 2))
    assert len(relay.flush_data_many(FLOW_ID, [1, 2])) == 2  # seqs 1, 2 to both children
    blocks = [random_block(rng, 2) for _ in range(4)]
    batch = PacketBatch(FLOW_ID, 2, 0, [0, 1, 2, 3], np.stack([b.coefficients for b in blocks]),
                        np.stack([b.payload for b in blocks]))
    (forward,) = relay.handle_packets([batch])
    assert (forward.destination_address, forward.seqs) == ("child-0", [0, 3])
    assert np.array_equal(forward.payloads, batch.payloads[[0, 3]])


def data_batch(rng, seqs, lane=0, d=2):
    blocks = [random_block(rng, d) for _ in seqs]
    return PacketBatch(FLOW_ID, d, lane, list(seqs), np.stack([b.coefficients for b in blocks]),
                       np.stack([b.payload for b in blocks]))


def test_a_row_far_outside_the_retention_window_is_refused():
    """A seq off the wire is 32 bits and every mask spans the flow's seqs, so
    a relay refuses rows more than a window outside what it holds or has
    flushed: no one frame can widen a flow's state by more than that."""
    rng = np.random.default_rng(6)
    relay = regeneration_relay(d=2, children=2)
    state = relay.flows[FLOW_ID]
    assert relay.handle_packets([data_batch(rng, range(4))])[0].seqs == [0, 1, 2, 3]
    assert relay.handle_packets([data_batch(rng, [2**32 - 1])]) == []
    edge = 3 + DEFAULT_SEQ_RETENTION  # a window past seq 3, the highest held
    assert relay.handle_packets([data_batch(rng, [edge + 1])]) == []
    assert state.refused_rows == 2
    (forward,) = relay.handle_packets([data_batch(rng, [4, 2**32 - 1, edge, edge + 1])])
    assert forward.seqs == [4, edge] and state.refused_rows == 4
    # Flushed seqs count as the flow's too: a burst may reach a relay only
    # through the regenerated slices that follow its flush.
    assert relay.flush_data_many(FLOW_ID, list(range(3 * DEFAULT_SEQ_RETENTION))) == []
    (ahead,) = relay.handle_packets([data_batch(rng, [4 * DEFAULT_SEQ_RETENTION - 1])])
    assert ahead.seqs == [4 * DEFAULT_SEQ_RETENTION - 1]
    relay.retire_data(FLOW_ID, 10 * DEFAULT_SEQ_RETENTION)
    (late,) = relay.handle_packets([data_batch(rng, [9 * DEFAULT_SEQ_RETENTION, 0])])
    assert late.seqs == [9 * DEFAULT_SEQ_RETENTION] and state.refused_rows == 5
    assert state.data.seqs() == [9 * DEFAULT_SEQ_RETENTION]
    widest = max(value.bit_length() for value in reachable(state, int, skip=(type(GF),)))
    assert widest <= 2 * DEFAULT_SEQ_RETENTION


@st.composite
def regeneration_states(draw):
    """Two relays, shipped and reference, with one data store, markers and burst.

    Returns the shipped :class:`Relay`, the reference one (its flow entry a
    :class:`ScalarFlowState`) and the burst to flush.
    """
    d = draw(st.integers(1, 3))
    d_prime = d + draw(st.integers(0, 2))
    children = draw(st.integers(0, 4))
    regenerate = draw(st.integers(0, 3)) > 0
    relay_seed, data_seed = draw(st.integers(0, 2**16)), draw(st.integers(0, 2**16))
    seqs = list(range(draw(st.integers(1, 5))))
    slots, forwarded, flushed = {}, [], []
    for seq in seqs:
        count = draw(st.integers(0, d_prime + 1))
        lanes = draw(st.permutations(range(d_prime + 1)))[:count]
        slots[seq] = (lanes, bool(count) and draw(st.booleans()))
        forwarded += [(seq, child) for child in range(children) if draw(st.integers(0, 3)) == 0]
        if draw(st.integers(0, 4)) == 0:
            flushed.append(seq)
    burst = draw(st.lists(st.sampled_from([*seqs, 200]), min_size=1, max_size=8))

    def build(state_class):
        relay = regeneration_relay(d, children, regenerate, relay_seed, state_class)
        state = relay.flows[FLOW_ID]
        rng = np.random.default_rng(data_seed)
        for seq, (lanes, clash) in slots.items():
            for lane in lanes:
                state.data.add(seq, lane, random_block(rng, d))
            if clash:
                state.data.add(seq, d_prime + 1, random_block(rng, d, SLICE_BYTES + 2))
        set_markers(state, forwarded, flushed)
        return relay

    return build(FlowState), build(ScalarFlowState), burst


def per_connection(packets):
    """Each receiver's packets' wire bytes in order, receivers in first-seen order.

    What one flush puts on each connection: the shipped flush emits one batch
    per child, the reference one packet per (seq, child).
    """
    wire = {}
    for packet in packets:
        wire.setdefault(packet.destination_address, []).append(packet.to_bytes())
    return list(wire.items())


@settings(max_examples=200, deadline=None)
@given(regeneration_states())
def test_batched_flush_matches_per_seq_reference(case):
    """One product per burst draws, forwards, counts and emits exactly what
    one ``recombine`` per regenerated slice did."""
    batched, reference, burst = case
    got = batched.flush_data_many(FLOW_ID, burst)
    want = reference_flush_data(reference, FLOW_ID, burst)
    assert per_connection(batch_packets(got)) == per_connection(want)
    assert batched.flows[FLOW_ID].markers() == reference.flows[FLOW_ID].markers()
    assert batched.stats == reference.stats
    assert batched.rng.bit_generator.state == reference.rng.bit_generator.state
