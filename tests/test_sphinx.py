"""Property harness for the Sphinx-format onion construction (the tentpole).

The construction's contract, driven with hypothesis across every feasible
route shape:

* build → peel ``L`` hops → the destination recovers the exact plaintexts;
* every forwarded setup packet is exactly ``PACKET_SIZE`` bytes and every
  data cell exactly ``DATA_CELL_SIZE`` bytes, at *every* hop — the
  constant-size invariant that closes the classic onion baseline's
  length side channel;
* flipping any single byte of a setup packet fails the MAC check at the
  next relay (alpha, routing and mac regions are all covered);
* building from the same seed is bit-for-bit deterministic, and distinct
  seeds diverge;
* the batched cell path (``wrap_cells`` / ``strip_cells``) is bit-identical
  to the per-cell reference (``tests/oracles/sphinx.py``).

Backend parity of delivered digests lives with the other runtime-parity
tests in ``tests/test_protocol_runtimes.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.sphinx import (
    DATA_CELL_SIZE,
    MAX_HOPS,
    PACKET_SIZE,
    SphinxCircuit,
    SphinxDirectory,
    SphinxPacket,
    SphinxRelay,
    SphinxSource,
    pack_cell,
    unpack_cell,
)
from repro.core.errors import ProtocolError

from oracles import sphinx as oracle
from strategies import payload_blobs, routes


def build_directory(relays, seed):
    return SphinxDirectory.for_relays(relays, np.random.default_rng(seed))


def build_engines(directory):
    return {
        address: SphinxRelay(address, directory.node(address))
        for address in directory.addresses()
    }


def run_sphinx_circuit(directory, source, relays, destination, path_length, messages):
    """Build a circuit and push messages through every hop's relay engine.

    Returns the circuit and the plaintexts that reached the destination.
    """
    engines = build_engines(directory)
    circuit, current = source.build_circuit(relays, destination, path_length)
    handles = []
    for hop in circuit.hops:
        handle, _next_hop, current = engines[hop].handle_setup(current)
        handles.append(handle)
    cells = source.wrap_cells(circuit, messages)
    for hop, handle in zip(circuit.hops, handles):
        _next_hop, cells = engines[hop].strip_cells(handle, cells)
    return circuit, [source.open_delivered(cell) for cell in cells]


@given(
    route=routes(max_hops=MAX_HOPS),
    messages=st.lists(payload_blobs(max_size=200), min_size=1, max_size=4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_build_peel_round_trip_recovers_plaintexts(route, messages, seed):
    relays, destination, path_length = route
    directory = build_directory(relays, seed)
    source = SphinxSource(directory, np.random.default_rng(seed + 1))
    circuit, received = run_sphinx_circuit(
        directory, source, relays, destination, path_length, messages
    )
    assert received == messages
    assert circuit.length == path_length
    assert circuit.destination == destination
    assert len(set(circuit.hops)) == path_length  # node-disjoint route


@given(
    route=routes(max_hops=MAX_HOPS),
    message=payload_blobs(max_size=64),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_constant_size_at_every_hop(route, message, seed):
    relays, destination, path_length = route
    directory = build_directory(relays, seed)
    source = SphinxSource(directory, np.random.default_rng(seed + 1))
    engines = build_engines(directory)
    circuit, packet = source.build_circuit(relays, destination, path_length)
    handles = []
    for hop in circuit.hops:
        assert len(packet) == PACKET_SIZE
        handle, next_hop, packet = engines[hop].handle_setup(packet)
        handles.append(handle)
    assert len(packet) == PACKET_SIZE  # what the exit would forward onward
    [cell] = source.wrap_cells(circuit, [message])
    for hop, handle in zip(circuit.hops, handles):
        assert len(cell) == DATA_CELL_SIZE
        next_hop, [cell] = engines[hop].strip_cells(handle, [cell])
    assert len(cell) == DATA_CELL_SIZE
    assert next_hop == destination
    assert source.open_delivered(cell) == message


@given(
    route=routes(max_hops=MAX_HOPS),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_any_single_byte_flip_fails_the_mac(route, seed, data):
    relays, destination, path_length = route
    directory = build_directory(relays, seed)
    source = SphinxSource(directory, np.random.default_rng(seed + 1))
    engines = build_engines(directory)
    circuit, packet = source.build_circuit(relays, destination, path_length)
    position = data.draw(st.integers(0, PACKET_SIZE - 1), label="position")
    flip = data.draw(st.integers(1, 255), label="flip")
    tampered = bytearray(packet)
    tampered[position] ^= flip
    with pytest.raises(ProtocolError, match="MAC check failed"):
        engines[circuit.hops[0]].handle_setup(bytes(tampered))


@given(route=routes(max_hops=MAX_HOPS), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_build_is_deterministic_from_seed(route, seed):
    relays, destination, path_length = route

    def build(build_seed):
        directory = build_directory(relays, seed)
        source = SphinxSource(directory, np.random.default_rng(build_seed))
        return source.build_circuit(relays, destination, path_length)

    first_circuit, first_packet = build(seed + 1)
    second_circuit, second_packet = build(seed + 1)
    assert first_packet == second_packet
    assert first_circuit.hops == second_circuit.hops
    assert first_circuit.session_keys == second_circuit.session_keys
    other_circuit, other_packet = build(seed + 2)
    assert other_packet != first_packet  # blinding chain diverges with the seed


@given(
    route=routes(max_hops=MAX_HOPS),
    messages=st.lists(payload_blobs(max_size=120), min_size=0, max_size=6),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_batched_cells_bit_identical_to_per_cell_reference(route, messages, seed):
    relays, destination, path_length = route
    directory = build_directory(relays, seed)
    source = SphinxSource(directory, np.random.default_rng(seed + 1))
    engines = build_engines(directory)
    circuit, packet = source.build_circuit(relays, destination, path_length)
    handles = []
    for hop in circuit.hops:
        handle, _next_hop, packet = engines[hop].handle_setup(packet)
        handles.append(handle)
    batched = source.wrap_cells(circuit, messages)
    stripped = [oracle.wrap_data(circuit, message) for message in messages]
    assert batched == stripped
    for hop, handle in zip(circuit.hops, handles):
        _next_hop, batched = engines[hop].strip_cells(handle, batched)
    for hop, handle in zip(circuit.hops, handles):
        stripped = [oracle.handle_data(engines[hop], handle, cell)[1] for cell in stripped]
    assert batched == stripped
    assert [unpack_cell(cell) for cell in batched] == messages


# -- packet and cell framing edge cases --------------------------------------------


def test_packet_from_bytes_rejects_wrong_sizes():
    with pytest.raises(ProtocolError):
        SphinxPacket.from_bytes(b"\x00" * (PACKET_SIZE - 1))
    with pytest.raises(ProtocolError):
        SphinxPacket.from_bytes(b"\x00" * (PACKET_SIZE + 1))


def test_cell_framing_round_trip_and_rejection():
    assert unpack_cell(pack_cell(b"")) == b""
    assert unpack_cell(pack_cell(b"payload")) == b"payload"
    assert len(pack_cell(b"x")) == DATA_CELL_SIZE
    with pytest.raises(ProtocolError):
        pack_cell(b"\x00" * DATA_CELL_SIZE)  # no room for the length prefix
    with pytest.raises(ProtocolError):
        unpack_cell(b"\x00" * (DATA_CELL_SIZE - 1))
    corrupt = bytearray(pack_cell(b"ok"))
    corrupt[0] = 0xFF  # length prefix far beyond the cell body
    with pytest.raises(ProtocolError):
        unpack_cell(bytes(corrupt))


def test_build_circuit_validates_route_shape():
    relays = [f"relay-{index}" for index in range(4)]
    directory = build_directory(relays, 3)
    source = SphinxSource(directory, np.random.default_rng(4))
    with pytest.raises(ProtocolError):
        source.build_circuit(relays, "destination", MAX_HOPS + 1)
    with pytest.raises(ProtocolError):
        source.build_circuit(relays[:2], "destination", 3)
    with pytest.raises(ProtocolError):
        # The destination does not count as a relay.
        source.build_circuit(["relay-0", "destination"], "destination", 2)


def test_directory_and_sessions_reject_unknowns():
    directory = build_directory(["relay-0"], 5)
    with pytest.raises(ProtocolError):
        directory.node("missing")
    relay = SphinxRelay("relay-0", directory.node("relay-0"))
    with pytest.raises(ProtocolError):
        relay.strip_cells(99, [b"\x00" * DATA_CELL_SIZE])


def test_oversized_hop_address_is_rejected_at_build_time():
    relays = ["relay-a", "relay-b", "relay-c"]
    directory = build_directory(relays, 6)
    source = SphinxSource(directory, np.random.default_rng(7))
    with pytest.raises(ProtocolError, match="exceeds"):
        # The destination is always packed into the exit slot.
        source.build_circuit(relays, "destination-" + "x" * 40, 3)


def test_circuit_length_property():
    circuit = SphinxCircuit(
        hops=["a", "b", "c"], session_keys=[b"k" * 16] * 3, destination="d"
    )
    assert circuit.length == 3
