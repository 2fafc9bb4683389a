"""Packet-size distinguishability: the wiretap, the attacker model, the family.

The attacker math is pinned on hand-built observation records; the scheme
expectations pin the paper-level outcome (classic onion routing's shrinking
setup onions reveal hop positions, Sphinx and slicing do not); and the
runner test pushes the registered family through the pool, byte-comparing
artifacts across worker counts.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.distinguishability import (
    RecordingOverlayNetwork,
    hop_positions,
    hop_size_unlinkability,
    observe_transfer,
    size_position_advantage,
)
from repro.experiments.throughput import SCHEMES
from repro.overlay.network import uniform_network
from repro.overlay.profiles import LAN_PROFILE

SMALL = 0.1


# -- the wiretap --------------------------------------------------------------------


def test_recording_network_taps_every_transmission():
    network = uniform_network(["a", "b"], 0.001, LAN_PROFILE.resources)
    substrate = RecordingOverlayNetwork(network, connection_bps=1e9)
    try:
        substrate.transmit_blob("a", "b", bytes(100), lambda _blob: None)
        substrate.transmit_batch("b", "a", [10, 20], lambda arrivals: None)
        substrate.sim.run()
    finally:
        substrate.close()
    assert substrate.records == [("a", "b", 100), ("b", "a", 10), ("b", "a", 20)]


def test_observe_transfer_splits_setup_and_data_phases():
    setup, data, sources = observe_transfer("sphinx", LAN_PROFILE, 3, seed=5)
    assert sources == ["sphinx-source"]
    assert setup and data
    # Sphinx is constant-size on the wire in both phases.
    assert len({size for _s, _r, size in setup}) == 1
    assert len({size for _s, _r, size in data}) == 1


# -- the attacker model -------------------------------------------------------------


def test_hop_positions_follow_observed_edges():
    records = [("s", "r1", 10), ("r1", "r2", 10), ("r2", "d", 10)]
    assert hop_positions(records, ["s"]) == {"s": 0, "r1": 1, "r2": 2, "d": 3}


def test_constant_sizes_give_zero_advantage():
    records = [("s", "r1", 64), ("r1", "r2", 64), ("r2", "d", 64)]
    assert size_position_advantage(records, ["s"]) == 0.0


def test_position_revealing_sizes_give_full_advantage():
    # One distinct size per hop: the MAP guesser places every packet.
    records = [("s", "r1", 96), ("r1", "r2", 64), ("r2", "d", 32)]
    assert size_position_advantage(records, ["s"]) == 1.0


def test_advantage_is_zero_without_observations():
    assert size_position_advantage([], ["s"]) == 0.0


# -- scheme expectations ------------------------------------------------------------


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_scheme_unlinkability_matches_the_paper_story(scheme):
    row = hop_size_unlinkability(scheme, LAN_PROFILE, 3, seed=11)
    if scheme in ("sphinx", "slicing"):
        assert row["unlinkability"] == 1.0
    else:
        # Classic onion setup packets shrink one layer per hop: the observer
        # reads the hop position straight off the packet length.
        assert row["unlinkability"] == 0.0
        assert row["setup_advantage"] == 1.0
        assert row["setup_distinct_sizes"] >= 3


def test_sphinx_setup_packets_are_constant_size():
    row = hop_size_unlinkability("sphinx", LAN_PROFILE, 5, seed=13)
    assert row["setup_distinct_sizes"] == 1
    assert row["data_distinct_sizes"] == 1


# -- the registered family ----------------------------------------------------------


def test_family_runs_byte_identical_across_worker_counts(tmp_path):
    one = run_experiment("distinguishability", scale=SMALL, out_dir=tmp_path / "w1")
    two = run_experiment(
        "distinguishability", scale=SMALL, out_dir=tmp_path / "w2", workers=2
    )
    assert one.artifact.read_bytes() == two.artifact.read_bytes()
    assert {row["scheme"] for row in one.rows} == set(SCHEMES)
    for row in one.rows:
        assert 0.0 <= row["unlinkability"] <= 1.0
