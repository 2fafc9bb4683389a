"""Tests for the onion routing baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import onion as oracle
from repro.baselines.onion import OnionDirectory, OnionRelay, OnionSource
from repro.core.errors import ProtocolError


def make_directory(count=20, seed=0):
    rng = np.random.default_rng(seed)
    addresses = [f"relay-{i}" for i in range(count)]
    return OnionDirectory.for_relays(addresses, rng), addresses, rng


def run_circuit(directory, source, relays, destination, path_length, messages):
    """Build a circuit and push messages through every hop's relay engine.

    Returns the circuit and the plaintexts that reached the destination.
    """
    engines = {
        address: OnionRelay(address, directory.key_pair(address))
        for address in directory.addresses()
    }
    circuit, current = source.build_circuit(relays, destination, path_length)
    handles = []
    for hop in circuit.hops:
        handle, _next_hop, current = engines[hop].handle_setup(current)
        handles.append(handle)
    received = []
    for message in messages:
        cell = source.wrap_data(circuit, message)
        for hop, handle in zip(circuit.hops, handles):
            _next_hop, cell = engines[hop].handle_data(handle, cell)
        received.append(cell)
    return circuit, received


def test_onion_circuit_end_to_end():
    directory, addresses, rng = make_directory()
    source = OnionSource(directory, rng)
    circuit, received = run_circuit(
        directory, source, addresses, "destination", 4, [b"hello", b"world"]
    )
    assert received == [b"hello", b"world"]
    assert circuit.length == 4
    assert len(set(circuit.hops)) == 4


def test_onion_layers_hide_route_from_relays():
    directory, addresses, rng = make_directory(seed=1)
    source = OnionSource(directory, rng)
    circuit, onion = source.build_circuit(addresses, "destination", 3)
    # The first relay can peel one layer and learns only the second hop.
    first = OnionRelay(circuit.hops[0], directory.key_pair(circuit.hops[0]))
    _handle, next_hop, remaining = first.handle_setup(onion)
    assert next_hop == circuit.hops[1]
    # It cannot peel the next layer (encrypted to the second relay's key).
    with pytest.raises(ValueError):
        first.key_pair.decrypt(remaining)
    # Hop addresses beyond its successor never appear in what it can read.
    assert circuit.hops[2].encode() not in remaining


def test_onion_requires_enough_relays():
    directory, addresses, rng = make_directory(count=3, seed=2)
    source = OnionSource(directory, rng)
    with pytest.raises(ProtocolError):
        source.build_circuit(addresses, "destination", 5)


def test_onion_relay_unknown_handle():
    directory, addresses, _ = make_directory(seed=3)
    relay = OnionRelay(addresses[0], directory.key_pair(addresses[0]))
    with pytest.raises(ProtocolError):
        relay.handle_data(99, b"cell")


def test_onion_data_layering_changes_ciphertext_per_hop():
    directory, addresses, rng = make_directory(seed=4)
    source = OnionSource(directory, rng)
    circuit, _ = source.build_circuit(addresses, "destination", 3)
    cell = source.wrap_data(circuit, b"payload")
    assert cell != b"payload"
    relays = {a: OnionRelay(a, directory.key_pair(a)) for a in circuit.hops}
    # Establish sessions first.
    current = source.build_circuit(addresses, "destination", 3)  # unused circuit
    # Use run_circuit for the full check instead.
    _circuit, received = run_circuit(
        directory, source, addresses, "destination", 3, [b"payload"]
    )
    assert received == [b"payload"]
    del relays, current


@st.composite
def bursts(draw, max_cells: int = 20):
    """A burst of cells: one length for all (every figure's case) or mixed, 0-byte included."""
    count = draw(st.integers(0, max_cells))
    if draw(st.booleans()):
        length = draw(st.sampled_from([0, 1, 1500]) | st.integers(0, 3000))
        return [draw(st.binary(min_size=length, max_size=length)) for _ in range(count)]
    return draw(st.lists(st.binary(min_size=0, max_size=3000), min_size=count, max_size=count))


@given(path_length=st.integers(1, 6), messages=bursts(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_burst_cells_bit_identical_to_per_cell_reference(path_length, messages, seed):
    directory, addresses, rng = make_directory(count=8, seed=seed)
    source = OnionSource(directory, rng)
    engines = {a: OnionRelay(a, directory.key_pair(a)) for a in addresses}
    circuit, onion = source.build_circuit(addresses, "destination", path_length)
    handles = []
    for hop in circuit.hops:
        handle, _next_hop, onion = engines[hop].handle_setup(onion)
        handles.append(handle)
    batched = source.wrap_cells(circuit, messages)
    reference = [oracle.wrap_data(circuit, message) for message in messages]
    assert batched == reference
    assert [source.wrap_data(circuit, message) for message in messages] == reference
    for hop, handle in zip(circuit.hops, handles):
        next_hop, batched = engines[hop].strip_cells(handle, batched)
        per_cell = [oracle.handle_data(engines[hop], handle, cell) for cell in reference]
        assert [engines[hop].handle_data(handle, cell) for cell in reference] == per_cell
        assert all(hop_of_cell == next_hop for hop_of_cell, _cell in per_cell)
        reference = [cell for _next_hop, cell in per_cell]
        assert batched == reference
    assert batched == messages
