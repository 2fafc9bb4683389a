"""The event core pinned: virtual clock, FIFO-queue arithmetic, path tables.

* *Golden runs* — a 4-flow slice of the ``slicing-manyflows`` shape and the
  ``slicing-churn`` flow, run to completion.  Their event counts and a
  sha256 over every relay decode instant and message delivery instant
  (written as ``float.hex``) are pinned, so any change to heap order, tie
  breaking, queue arithmetic or batching that moves the virtual clock by
  one ulp fails here, not in a figure artifact much later.  A second sha256
  covers the wire bytes of every packet handed to the transport, in order,
  so a change to what relays regenerate (§4.4.1) or sources code shows up
  as a byte change even when no instant moves.
* *Queue arithmetic* — ``_queue_dones`` against the numpy closed form it
  replaced, kept here as the oracle; the one-pass sender and receiver
  accounting against two passes of ``_queue_dones``.
* *Path tables* — ``ForwardingGraph``'s precomputed carrier, path and edge
  tables against the carrier formula of Algorithm 1.
* *Landing order* — ``schedule_keyed`` taking an item when it is sent,
  against the two-event landing it replaced (``tests/oracles/landing.py``):
  random worlds of plain events and keyed items on a coarse time grid run
  in the same order on both, and the one documented divergence is pinned.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import GraphConstructionError
from repro.core.graph import build_forwarding_graph
from repro.core.packet import PacketBatch
from repro.core.source import Source
from repro.experiments.throughput import connection_bps_for, prepare_scheme_transfer
from repro.overlay.node import FlowProgress, SimulatedOverlayNetwork, SlicingRuntime, _queue_dones
from repro.overlay.profiles import LAN_PROFILE, PLANETLAB_PROFILE
from repro.overlay.runtime import build_substrate
from repro.overlay.simulator import EventSimulator

from oracles.landing import TwoEventSimulator

MESSAGE_BYTES = 1500

# -- golden runs ----------------------------------------------------------------------


def _progress_digest(progresses: list[FlowProgress]) -> str:
    """sha256 over every decode and delivery instant, bit for bit."""
    digest = hashlib.sha256()
    for progress in progresses:
        digest.update(b"flow" + progress.setup_injected_at.hex().encode())
        for address in sorted(progress.relay_decode_times):
            at = progress.relay_decode_times[address]
            digest.update(f"decode {address} {at.hex()};".encode())
        for seq in sorted(progress.delivered_messages):
            at = progress.delivered_messages[seq]
            digest.update(f"deliver {seq} {at.hex()};".encode())
        digest.update(f"bytes {progress.delivered_bytes};".encode())
    return digest.hexdigest()


def _manyflows_slice(seed: int = 7, flows: int = 4) -> tuple[object, list[FlowProgress], int]:
    """The ``slicing-manyflows`` shape (PlanetLab, d = 3, L = 5) at ``flows`` flows."""
    d, path_length, burst_messages = 3, 5, 16
    overlay = [f"pl-{index}" for index in range(100)]
    source_stages = [[f"flow{flow}-src-{i}" for i in range(d)] for flow in range(flows)]
    destinations = [f"flow{flow}-dst" for flow in range(flows)]
    addresses = [*overlay, *(a for stage in source_stages for a in stage), *destinations]
    network = PLANETLAB_PROFILE.build_network(addresses, np.random.default_rng(seed))
    substrate = build_substrate(
        "sim", network, connection_bps=connection_bps_for(PLANETLAB_PROFILE)
    )
    runtime = SlicingRuntime(substrate, rng=np.random.default_rng(seed + 1))
    established = []
    for index, (stage, destination) in enumerate(zip(source_stages, destinations)):
        source = Source(
            stage[0], stage[1:], d=d, d_prime=d, path_length=path_length,
            rng=np.random.default_rng(seed + 31 * index + 2),
        )
        flow = source.establish_flow(overlay, destination)
        established.append((source, flow, runtime.start_flow(source, flow)))
    substrate.sim.run()
    payload = np.random.default_rng(seed + 1000)
    for source, flow, _progress in established:
        messages = [payload.bytes(MESSAGE_BYTES) for _ in range(burst_messages)]
        runtime.send_messages(source, flow, messages)
    substrate.sim.run()
    delivered = sum(len(progress.delivered_messages) for *_, progress in established)
    return substrate.sim, [progress for *_, progress in established], delivered


def _churn_flow(seed: int = 11, bursts: int = 4, burst_messages: int = 32):
    """The ``slicing-churn`` flow: d = 2, d' = 3, L = 4, a relay dies halfway."""
    substrate, runtime, relays, destination = prepare_scheme_transfer(
        "slicing", LAN_PROFILE, 4, 2, 3, seed, "batched", "sim"
    )
    runtime.establish(relays, destination)
    substrate.sim.run()
    payload = np.random.default_rng(seed + 1000)
    for burst in range(bursts):
        if burst == bursts // 2:
            stage = runtime.flow.graph.stages[2]
            substrate.fail_node(next(a for a in stage if a != destination))
        runtime.send_messages([payload.bytes(MESSAGE_BYTES) for _ in range(burst_messages)])
        substrate.sim.run()
    return substrate.sim, [runtime.progress], len(runtime.delivered_plaintexts())


def _recording_wire(monkeypatch):
    """sha256 over ``to_bytes()`` of every packet the simulator transmits."""
    digest = hashlib.sha256()
    transmit = SimulatedOverlayNetwork.transmit_packets

    def recording(self, sender, receiver, packets, *args, **kwargs):
        for packet in packets:
            digest.update(packet.to_bytes())
        return transmit(self, sender, receiver, packets, *args, **kwargs)

    monkeypatch.setattr(SimulatedOverlayNetwork, "transmit_packets", recording)
    return digest


@pytest.mark.parametrize(
    "run, events, batched, delivered, digest, wire",
    [
        (_manyflows_slice, 728, 0, 64,
         "44bb48e56928b7c9edccf17a85e4992d5091c424f4750fb5981317464a812fa9",
         "f5dff076a044b16dd73951a2dd32c9ea117ab9196aac51563e20fe6381536a9e"),
        (_churn_flow, 493, 62, 128,
         "672ad4dba4ea385a8893ce903eca3f386c010a71f1ba34a767c4e37a32bce179",
         "1a55cd47d9412eed1153ffe7a00fa47d4568094cf658e3e81f6256bbe744fceb"),
    ],
    ids=["manyflows-4", "churn"],
)
def test_golden_virtual_clock(monkeypatch, run, events, batched, delivered, digest, wire):
    wire_digest = _recording_wire(monkeypatch)
    sim, progresses, got_delivered = run()
    assert (sim.events_processed, sim.batched_events) == (events, batched)
    assert got_delivered == delivered
    assert _progress_digest(progresses) == digest
    assert wire_digest.hexdigest() == wire


# -- queue arithmetic -------------------------------------------------------------------


def _numpy_queue_dones(free, starts, durations):
    """The closed form ``done_i = c_i + max(free, max_{j<=i}(start_j - c_{j-1}))``.

    Below eight items the plain recurrence, as in ``_queue_dones``.
    """
    if len(durations) < 8:
        dones = []
        for start, duration in zip(starts, durations):
            begin = start if start > free else free
            free = begin + duration
            dones.append(free)
        return dones
    durations_arr = np.asarray(durations, dtype=float)
    starts_arr = np.asarray(starts, dtype=float)
    csum = np.cumsum(durations_arr)
    slack = np.maximum.accumulate(starts_arr - (csum - durations_arr))
    return (csum + np.maximum(slack, free)).tolist()


_times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def _queues(draw):
    count = draw(st.integers(0, 40))
    free = draw(_times)
    starts = draw(st.lists(_times, min_size=count, max_size=count))
    # Clustered starts (many items arriving at one instant) are the common case.
    if draw(st.booleans()):
        starts = sorted(starts)
    durations = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=count, max_size=count
    ))
    return free, starts, durations


@given(_queues())
@settings(max_examples=300, deadline=None)
def test_queue_dones_matches_numpy_closed_form(queue):
    free, starts, durations = queue
    got: list[float] = []
    _queue_dones(free, len(durations), zip(starts, durations), got)
    want = _numpy_queue_dones(free, starts, durations)
    assert [value.hex() for value in got] == [value.hex() for value in want]


_cpus = st.floats(min_value=0.0, max_value=1e-2, allow_nan=False)


@st.composite
def _queue_free(draw, now):
    """A queue's free time before, at or after ``now``."""
    return draw(st.sampled_from([now, max(now - draw(_times), 0.0), now + draw(_times)]))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_batch_accounting_equals_the_queue_passes(data):
    """``_account_batch`` and the receiver's folded completion, bit for bit.

    The reference: the sender CPU queue as a ``_queue_dones`` pass whose
    starts are all ``now``, the connection queue as a second pass over its
    ready times; the receiver as one pass over per-packet durations listed
    one by one.  Item counts cross the closed form's 8-item bound.
    """
    now = data.draw(_times, label="now")
    count = data.draw(st.integers(1, 20), label="packets")
    sizes = data.draw(st.lists(st.integers(1, 70_000), min_size=count, max_size=count))
    cpus = data.draw(st.lists(_cpus, min_size=count, max_size=count))
    cpu_free, link_free = data.draw(_queue_free(now)), data.draw(_queue_free(now))
    substrate = build_substrate(
        "sim", LAN_PROFILE.build_network(["a", "b"], np.random.default_rng(0)),
        connection_bps=connection_bps_for(LAN_PROFILE),
    )
    substrate.sim.now = now
    substrate._cpu_free_at["a"], substrate._link_free_at["a", "b"] = cpu_free, link_free
    arrivals = substrate._account_batch("a", "b", sizes, cpus)

    readies: list[float] = []
    cpu_done = _queue_dones(cpu_free, count, zip([now] * count, [
        cpu + substrate.per_packet_overhead for cpu in cpus
    ]), readies)
    link_dones: list[float] = []
    scale = 8.0 / substrate.connection_bps
    link_done = _queue_dones(link_free, count, zip(readies, [size * scale for size in sizes]),
                             link_dones)
    latency = substrate.network.latency("a", "b")
    assert [arrival.hex() for arrival in arrivals] == [
        (done + latency).hex() for done in link_dones
    ]
    assert substrate._cpu_free_at["a"].hex() == cpu_done.hex()
    assert substrate._link_free_at["a", "b"].hex() == link_done.hex()

    # The receiver: batches of several widths coalesced into one inbox.
    runtime = SlicingRuntime(substrate)
    runtime.add_relay("b")
    widths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4), label="batch rows")
    items = []
    for width, payload_bytes in zip(widths, [8, 300, 1500, 40]):
        batch = PacketBatch(1, 2, 0, list(range(width)), np.zeros((width, 2), np.uint8),
                            np.zeros((width, payload_bytes), np.uint8))
        starts = data.draw(st.lists(_times, min_size=width, max_size=width), label="arrivals")
        items.append(([batch], starts))
    receiver_free = data.draw(_queue_free(now))
    substrate._cpu_free_at["b"] = receiver_free
    runtime._process_inbox(
        "b", [batch for batches, _ in items for batch in batches],
        [start for _, arrivals in items for start in arrivals],
    )
    resources = substrate.network.resources("b")
    durations = [
        runtime._packet_cpu_cost(batch, resources) for (batch,), _ in items for _row in batch.seqs
    ]
    starts = [start for _batch, arrivals in items for start in arrivals]
    want = _queue_dones(receiver_free, len(durations), zip(starts, durations))
    assert substrate._cpu_free_at["b"].hex() == want.hex()


# -- path tables ------------------------------------------------------------------------


def _formula_carrier(graph, owner, k, stage):
    """Algorithm 1's carrier assignment, straight from the formula."""
    owner_stage = graph.stage_of(owner)
    if stage >= owner_stage:
        return owner
    position = (stage * graph.position_of(owner) + k + graph.stage_offsets[owner_stage])
    return graph.stages[stage][position % graph.d_prime]


def _formula_edge_slices(graph, parent, child):
    parent_stage, child_stage = graph.stage_of(parent), graph.stage_of(child)
    own = [
        (child, k) for k in range(graph.d_prime)
        if _formula_carrier(graph, child, k, parent_stage) == parent
    ]
    downstream = [
        (owner, k)
        for later in range(child_stage + 1, len(graph.stages))
        for owner in graph.stages[later]
        for k in range(graph.d_prime)
        if _formula_carrier(graph, owner, k, parent_stage) == parent
        and _formula_carrier(graph, owner, k, child_stage) == child
    ]
    return own + downstream


@given(
    d_prime=st.integers(2, 4),
    path_length=st.integers(2, 6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_path_tables_match_carrier_formula(d_prime, path_length, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, d_prime + 1))
    sources = [f"src-{i}" for i in range(d_prime)]
    relays = [f"relay-{i}" for i in range(path_length * d_prime * 2)]
    graph = build_forwarding_graph(sources, relays, "dst", path_length, d, d_prime, rng)

    for stage_index in range(1, len(graph.stages)):
        for owner in graph.stages[stage_index]:
            for k in range(d_prime):
                expected_path = [
                    _formula_carrier(graph, owner, k, m) for m in range(stage_index)
                ] + [owner]
                assert graph.slice_path(owner, k) == expected_path
                for m in range(len(graph.stages)):
                    assert graph.carrier(owner, k, m) == _formula_carrier(graph, owner, k, m)
            with pytest.raises(GraphConstructionError):
                graph.carrier(owner, d_prime, 0)

    for address in [node for stage in graph.stages for node in stage]:
        stage = graph.stage_of(address)
        expected = [(address, k) for k in range(d_prime)] if stage > 0 else []
        expected += [
            (owner, k)
            for later in range(stage + 1, len(graph.stages))
            for owner in graph.stages[later]
            for k in range(d_prime)
            if _formula_carrier(graph, owner, k, stage) == address
        ]
        assert graph.slices_carried_by(address) == expected

    for parent, child in graph.edges():
        assert graph.edge_slices(parent, child) == _formula_edge_slices(graph, parent, child)
    assert graph.max_slices_per_edge() == path_length

    # Same stage, two stages apart, and backwards: none is an edge.
    first, later = graph.stages[1][0], graph.stages[2][0]
    for parent, child in ((first, graph.stages[1][1]), (graph.stages[0][0], later),
                          (later, first)):
        with pytest.raises(GraphConstructionError, match="not adjacent"):
            graph.edge_slices(parent, child)
    with pytest.raises(GraphConstructionError, match="not on the graph"):
        graph.edge_slices("nobody", first)


# -- landing order ----------------------------------------------------------------------

# Positive delays on a coarse grid: instants tie often, and the ones that are
# not binary fractions make ``now + (time - now)`` differ from ``time``.
_delays = st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0])


@st.composite
def _actions(draw, depth=2):
    """What a world submits: plain events and keyed items, each with what it submits."""
    return [
        (draw(st.sampled_from(["plain", "keyed"])), draw(_delays), draw(st.integers(0, 2)),
         draw(_actions(depth - 1)) if depth else [])
        for _ in range(draw(st.integers(0, 4)))
    ]


def _run_world(sim, submit_keyed, actions):
    """Run a world; the log of every plain event and drain, with its instant."""
    log = []
    names = itertools.count()

    def submit(actions):
        for kind, delay, key, children in actions:
            name = next(names)
            if kind == "plain":
                def fire(name=name, children=children):
                    log.append(("plain", name, sim.now.hex()))
                    submit(children)

                sim.schedule(delay, fire)
            else:
                submit_keyed(key, sim.now + delay, (name, children), drains[key])

    def drain(key, items):
        log.append(("drain", key, sim.now.hex(), [name for name, _children in items]))
        for _name, children in items:
            submit(children)

    drains = [lambda items, key=key: drain(key, items) for key in range(3)]
    submit(actions)
    sim.run()
    return log, sim.batched_events


@given(st.lists(_actions(), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_keyed_items_land_in_the_two_event_order(worlds):
    """Taken when sent, keyed items drain in the order their landing events gave."""
    for actions in worlds:
        sim, reference = EventSimulator(), TwoEventSimulator()
        assert _run_world(sim, sim.schedule_keyed, actions) == _run_world(
            reference, reference.land, actions
        )


def _zero_delay_world(sim, submit_keyed):
    log = []
    submit_keyed("rx", 1.0, "item", lambda items: log.append(("drain", items)))

    def plain():
        log.append("plain")
        sim.schedule(0.0, lambda: log.append("zero-delay"))

    sim.schedule(1.0, plain)
    sim.run()
    return log


def test_a_zero_delay_event_runs_before_the_pending_inbox_of_its_instant():
    """The one divergence: a zero-delay event scheduled during an instant whose
    inbox is pending runs before that inbox; after the two-event landing had
    scheduled the batch, it ran after it."""
    sim, reference = EventSimulator(), TwoEventSimulator()
    assert _zero_delay_world(sim, sim.schedule_keyed) == [
        "plain", "zero-delay", ("drain", ["item"])
    ]
    assert _zero_delay_world(reference, reference.land) == [
        "plain", ("drain", ["item"]), "zero-delay"
    ]


@pytest.mark.parametrize("simulator", [EventSimulator, TwoEventSimulator])
def test_items_sent_at_two_nows_for_one_time_land_an_ulp_apart(simulator):
    """The instant is the one ``schedule_at`` gives: ``now + (time - now)``."""
    sim = simulator()
    submit = sim.schedule_keyed if simulator is EventSimulator else sim.land
    assert 0.1 + (0.9 - 0.1) == 0.9 != 0.2 + (0.9 - 0.2)
    drained = []

    def drain(items):
        drained.append((sim.now, items))

    sim.schedule_at(0.1, lambda: submit("rx", 0.9, "a", drain))
    sim.schedule_at(0.2, lambda: submit("rx", 0.9, "b", drain))
    sim.run()
    assert drained == [(0.2 + (0.9 - 0.2), ["b"]), (0.9, ["a"])]
    assert sim.batched_events == 0
