"""Packet-size distinguishability: what a passive link tap sees of each scheme.

An observer who sees every transmission's (sender, receiver, size) but no
payload bytes can place a packet on its route by length alone exactly when
a scheme's on-wire sizes change along the route.  For the three runtimes
that is a yes/no fact per phase, pinned here on real transfers: slicing and
Sphinx put one size per phase on the wire, while classic onion setup packets
shrink by one layer per hop.
"""

import pytest

from repro.experiments import throughput
from repro.overlay.network import uniform_network
from repro.overlay.profiles import LAN_PROFILE

from oracles.wiretap import RecordingOverlayNetwork

NUM_MESSAGES = 24


def observe_transfer(monkeypatch, scheme, path_length, seed):
    """Run one transfer under the tap; returns its (setup, data) records.

    ``setup`` is everything transmitted while the route was established,
    ``data`` everything transmitted while a burst of 512-byte messages
    drained.  The tap replaces the simulated substrate the transfer builds,
    and must have seen every packet the substrate counted as sent.
    """

    def tapped_substrate(backend, network, connection_bps):
        assert backend == "sim"
        return RecordingOverlayNetwork(network, connection_bps=connection_bps)

    monkeypatch.setattr(throughput, "build_substrate", tapped_substrate)
    substrate, runtime, relays, destination = throughput.prepare_scheme_transfer(
        scheme, LAN_PROFILE, path_length, 2, 3, seed, "batched"
    )
    try:
        runtime.establish(relays, destination)
        substrate.sim.run()
        setup = list(substrate.records)
        substrate.records.clear()
        runtime.send_messages([bytes(512)] * NUM_MESSAGES)
        substrate.sim.run()
        assert len(runtime.delivered_plaintexts()) == NUM_MESSAGES
        assert len(setup) + len(substrate.records) == substrate.stats.packets_sent
        return setup, list(substrate.records)
    finally:
        substrate.close()


def sizes(records):
    return [size for _sender, _receiver, size in records]


def test_recording_network_taps_every_transmission():
    network = uniform_network(["a", "b"], 0.001, LAN_PROFILE.resources)
    substrate = RecordingOverlayNetwork(network, connection_bps=1e9)
    try:
        substrate.transmit_blob("a", "b", bytes(100), lambda _blob: None)
        substrate.transmit_blobs("b", "a", [bytes(10), bytes(20)], lambda *_: None)
        substrate.sim.run()
    finally:
        substrate.close()
    assert substrate.records == [("a", "b", 100), ("b", "a", 10), ("b", "a", 20)]


def test_observe_transfer_splits_setup_and_data_phases(monkeypatch):
    # An onion circuit of L relays: the setup onion crosses the L links up to
    # the last relay, and every data cell crosses all L + 1 links.
    setup, data = observe_transfer(monkeypatch, "onion", 3, seed=5)
    assert setup[0][0] == "onion-source"
    assert len(setup) == 3
    assert len(data) == 4 * NUM_MESSAGES


@pytest.mark.parametrize("scheme", ["slicing", "onion", "sphinx"])
def test_scheme_unlinkability_matches_the_paper_story(scheme, monkeypatch):
    path_length = 3
    setup, data = observe_transfer(monkeypatch, scheme, path_length, seed=13)
    # Data is one size on the wire for every scheme.
    assert len(set(sizes(data))) == 1
    if scheme in ("slicing", "sphinx"):
        # Constant size in both phases: length places no packet on its route.
        assert len(set(sizes(setup))) == 1
    else:
        # Classic onion setup packets shrink one layer per hop, so the length
        # names the hop: L distinct sizes, strictly decreasing along the chain.
        assert [receiver for _s, receiver, _size in setup[:-1]] == [
            sender for sender, _r, _size in setup[1:]
        ]
        assert len(setup) == path_length
        assert sizes(setup) == sorted(set(sizes(setup)), reverse=True)


def test_sphinx_setup_packets_are_constant_size(monkeypatch):
    setup, data = observe_transfer(monkeypatch, "sphinx", 5, seed=13)
    assert len(set(sizes(setup))) == 1
    assert len(set(sizes(data))) == 1
