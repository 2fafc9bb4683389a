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
  replaced, kept here as the oracle.
* *Path tables* — ``ForwardingGraph``'s precomputed carrier, path and edge
  tables against the carrier formula of Algorithm 1.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import GraphConstructionError
from repro.core.graph import build_forwarding_graph
from repro.core.source import Source
from repro.experiments.throughput import connection_bps_for, prepare_scheme_transfer
from repro.overlay.node import FlowProgress, SimulatedOverlayNetwork, SlicingRuntime, _queue_dones
from repro.overlay.profiles import LAN_PROFILE, PLANETLAB_PROFILE
from repro.overlay.runtime import build_substrate

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
        (_manyflows_slice, 1088, 0, 64,
         "44bb48e56928b7c9edccf17a85e4992d5091c424f4750fb5981317464a812fa9",
         "f5dff076a044b16dd73951a2dd32c9ea117ab9196aac51563e20fe6381536a9e"),
        (_churn_flow, 793, 62, 128,
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
    got = _queue_dones(free, starts, durations)
    want = _numpy_queue_dones(free, starts, durations)
    assert [value.hex() for value in got] == [value.hex() for value in want]


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
