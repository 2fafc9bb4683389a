"""Tests for the churn-resilience closed forms (Eqs. 6-7, Figs. 16-17), the
churn model, and the stage premise Eq. 7 rests on, decided against the
packet-level protocol over every failure pattern of small worlds."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ChurnError, SimulationError
from repro.experiments import experiment_rows, run_experiment
from repro.experiments.figures import _FIG17_D_PRIMES
from repro.overlay.churn import PLANETLAB_CHURN, STABLE_CHURN, ChurnModel
from repro.resilience.analysis import (
    onion_erasure_success_probability,
    path_survival_probability,
    slicing_success_probability,
    stage_success_probability,
    standard_onion_success_probability,
)

from oracles import resilience as oracle

# -- analysis (Eqs. 6, 7) ---------------------------------------------------------------


def test_no_failures_means_certain_success():
    assert slicing_success_probability(0.0, 5, 2, 3) == pytest.approx(1.0)
    assert onion_erasure_success_probability(0.0, 5, 2, 3) == pytest.approx(1.0)
    assert standard_onion_success_probability(0.0, 5) == pytest.approx(1.0)


def test_certain_failure_means_zero_success():
    assert slicing_success_probability(1.0, 5, 2, 4) == pytest.approx(0.0)
    assert onion_erasure_success_probability(1.0, 5, 2, 4) == pytest.approx(0.0)


def test_no_redundancy_reduces_to_simple_products():
    p = 0.2
    # With d' = d the slicing scheme needs every node alive (same as d paths
    # each of length L for the erasure scheme when d = 1).
    assert slicing_success_probability(p, 4, 2, 2) == pytest.approx((1 - p) ** 8)
    assert path_survival_probability(p, 4) == pytest.approx((1 - p) ** 4)
    assert standard_onion_success_probability(p, 4) == pytest.approx((1 - p) ** 4)


@given(
    p=st.floats(min_value=0.01, max_value=0.5),
    d_prime=st.integers(min_value=3, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_slicing_beats_onion_erasure_for_same_redundancy(p, d_prime):
    # The paper's headline analytical result (Fig. 16).
    d, path_length = 2, 5
    slicing = slicing_success_probability(p, path_length, d, d_prime)
    erasure = onion_erasure_success_probability(p, path_length, d, d_prime)
    assert slicing >= erasure - 1e-12


def test_success_probability_monotone_in_redundancy():
    values = [
        slicing_success_probability(0.3, 5, 2, d_prime) for d_prime in range(2, 8)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_stage_success_probability_bounds():
    assert 0.0 <= stage_success_probability(0.3, 2, 4) <= 1.0
    with pytest.raises(ValueError):
        stage_success_probability(1.5, 2, 4)
    with pytest.raises(ValueError):
        stage_success_probability(0.5, 3, 2)


# -- churn model -----------------------------------------------------------------------


def test_churn_model_failure_probability_monotone_in_time():
    model = PLANETLAB_CHURN
    assert model.failure_probability(0) == pytest.approx(0.0)
    assert model.failure_probability(1800) < model.failure_probability(7200)


def test_churn_model_validation():
    with pytest.raises(ChurnError):
        ChurnModel(failure_prone_fraction=1.5)
    with pytest.raises(ChurnError):
        ChurnModel(short_mean_seconds=-1)
    with pytest.raises(ChurnError):
        PLANETLAB_CHURN.failure_probability(-5)


def test_stable_churn_rarely_fails():
    assert STABLE_CHURN.failure_probability(1800) < 1e-5


# -- Fig. 17: the closed forms at q, against the churn Monte-Carlo ------------------------

#: Fig. 17's per-relay failure probability: death within a 30-minute session.
Q = PLANETLAB_CHURN.failure_probability(1800)


def test_success_predicates():
    stage_failures = np.zeros((5, 3), dtype=bool)
    assert oracle.slicing_transfer_succeeds(stage_failures, 2)
    stage_failures[2, :2] = True
    assert oracle.slicing_transfer_succeeds(stage_failures, 1)
    assert not oracle.slicing_transfer_succeeds(stage_failures, 2)

    path_failures = np.zeros((3, 5), dtype=bool)
    assert oracle.onion_erasure_transfer_succeeds(path_failures, 2)
    path_failures[0, 1] = True
    path_failures[1, 2] = True
    assert not oracle.onion_erasure_transfer_succeeds(path_failures, 2)

    assert oracle.standard_onion_transfer_succeeds(np.zeros(5, dtype=bool))
    assert not oracle.standard_onion_transfer_succeeds(np.array([False, True, False]))


def _masks_and_weights(n):
    """Every failure mask of ``n`` relays with its probability at ``Q``."""
    masks = np.array(list(itertools.product((False, True), repeat=n)), dtype=bool)
    failed = masks.sum(axis=1)
    return masks, Q**failed * (1 - Q) ** (n - failed)


@pytest.mark.parametrize(
    "path_length,d_prime",
    [(L, dp) for L in range(2, 7) for dp in range(2, 7) if L * dp <= 12],
)
def test_closed_forms_are_the_oracle_predicates_summed_over_every_failure_mask(
    path_length, d_prime
):
    masks, weights = _masks_and_weights(path_length * d_prime)
    for d in range(1, d_prime + 1):
        slicing = sum(
            weight
            for weight, mask in zip(weights, masks)
            if oracle.slicing_transfer_succeeds(mask.reshape(path_length, d_prime), d)
        )
        erasure = sum(
            weight
            for weight, mask in zip(weights, masks)
            if oracle.onion_erasure_transfer_succeeds(mask.reshape(d_prime, path_length), d)
        )
        assert abs(slicing - slicing_success_probability(Q, path_length, d, d_prime)) <= 1e-12
        assert abs(erasure - onion_erasure_success_probability(Q, path_length, d, d_prime)) <= 1e-12
    masks, weights = _masks_and_weights(path_length)
    onion = sum(
        weight
        for weight, mask in zip(weights, masks)
        if oracle.standard_onion_transfer_succeeds(mask)
    )
    assert abs(onion - standard_onion_success_probability(Q, path_length)) <= 1e-12


def _fig17_closed_forms(d_prime):
    return {
        "added_redundancy": (d_prime - 2) / 2,
        "information_slicing_success": slicing_success_probability(Q, 5, 2, d_prime),
        "onion_erasure_success": onion_erasure_success_probability(Q, 5, 2, d_prime),
        "standard_onion_success": standard_onion_success_probability(Q, 5),
    }


@pytest.mark.parametrize("d_prime", _FIG17_D_PRIMES)
def test_churn_oracle_agrees_with_closed_forms_at_fig17_points(d_prime):
    # Lifetimes drawn from the two-class model: each relay dies before the
    # session ends with probability Q, so each rate is Binomial(n, exact) / n.
    trials = 5000
    sampled = oracle.simulate_transfers(
        PLANETLAB_CHURN, 1800.0, 5, 2, d_prime, trials=trials, rng=np.random.default_rng(d_prime)
    )
    exact = _fig17_closed_forms(d_prime)
    for measured, field in [
        (sampled.information_slicing, "information_slicing_success"),
        (sampled.onion_erasure, "onion_erasure_success"),
        (sampled.standard_onion, "standard_onion_success"),
    ]:
        sigma = np.sqrt(exact[field] * (1 - exact[field]))
        assert abs(measured - exact[field]) <= 4 * sigma / np.sqrt(trials), (field, measured)


def test_fig17_rows_are_the_closed_forms_at_any_scale_seed_and_worker_count(tmp_path):
    expected = [_fig17_closed_forms(d_prime) for d_prime in _FIG17_D_PRIMES]
    rows = experiment_rows("fig17", scale=0.05)
    assert rows == expected
    assert [list(row) for row in rows] == [list(row) for row in expected]
    assert experiment_rows("fig17", scale=1.0) == rows
    assert experiment_rows("fig17", scale=0.05, seed=7) == rows
    run_experiment("fig17", scale=0.05, workers=1, out_dir=tmp_path / "serial")
    run_experiment("fig17", scale=0.05, workers=3, out_dir=tmp_path / "pooled")
    assert (tmp_path / "serial" / "fig17.json").read_bytes() == (
        tmp_path / "pooled" / "fig17.json"
    ).read_bytes()


# -- the stage premise, decided over every failure pattern -------------------------------
#
# Eq. 7 assumes a slicing transfer survives iff every stage keeps >= d live
# relays.  Every world below puts the destination in stage L and fails every
# subset of the other relays after route setup, then replays the data phase
# on the real relays.  Two statements are checked on every pattern:
#
# * the outcome is what the relay rules imply (``flush_model_delivers``);
# * "stages 1..L-1 each keep >= d live relays" (the destination's own stage
#   is exempt: a destination whose stage-mates all die still decodes) is
#   the outcome, except on exactly the patterns of PREMISE_EXCEPTIONS.

WORLDS = [
    (L, d, d_prime)
    for L in range(2, 5)
    for d_prime in range(2, 5)
    if L * d_prime <= 9
    for d in range(1, d_prime + 1)
]


def flush_model_delivers(path_length, d, d_prime, failed, destination):
    """Whether relay (L, ``destination``) collects ``d`` slices, from the relay rules.

    The data map (``repro.core.slice_map._build_data_map``): relay (m, a)
    forwards to child b the slice that reached it on lane (a + b) mod d' if
    m = 1, else on lane b, and a slice travels on its sender's position.  So
    in stages m >= 3 every slice of relay (m, a) passes through relay
    (m - 2, a).  A failed relay neither receives nor sends.  Once the burst
    is out, one flush fires at every live relay at once
    (``SlicingRuntime._flush_data_burst``): a relay holding >= d slices
    regenerates one for each child it has not fed (§4.4.1).  Those slices
    arrive after every relay has flushed, so they are forwarded along the
    data map but never regenerated again.  Source slices are MDS-coded and
    a regenerated slice is a random combination of a full-rank set, so any
    ``d`` slices decode.
    """

    def alive(stage, position):
        return (stage, position) not in failed

    def lane_for(stage, position, child):
        return (position + child) % d_prime if stage == 1 else child

    # Slices (by lane) each relay holds when the flush fires.
    held = {(1, a): set(range(d_prime)) if alive(1, a) else set() for a in range(d_prime)}
    for m in range(2, path_length + 1):
        for a in range(d_prime):
            held[m, a] = {
                p
                for p in range(d_prime)
                if alive(m, a) and alive(m - 1, p) and lane_for(m - 1, p, a) in held[m - 1, p]
            }
    # Slices that arrive after it: regenerated, or forwarded once they land.
    late = {key: set() for key in held}
    for m in range(1, path_length):
        for a in range(d_prime):
            if not alive(m, a):
                continue
            regenerates = len(held[m, a]) >= d
            for b in range(d_prime):
                lane = lane_for(m, a, b)
                if lane not in held[m, a] and (regenerates or lane in late[m, a]):
                    late[m + 1, b].add(a)
    last = (path_length, destination)
    return len(held[last]) + len(late[last]) >= d


def stage_premise(path_length, d, d_prime, failed):
    return all(
        sum((m, a) not in failed for a in range(d_prime)) >= d for m in range(1, path_length)
    )


#: Every pattern on which the stage premise misjudges the protocol, by class
#: and world (L, d, d'); a pattern lists its failed relays as (stage,
#: position).  The destination sits at (3, 1) in the L = 3 worlds and at
#: (4, 0) in the L = 4 worlds.
#:
#: (A) Delivers although stage L-2 keeps fewer than d live relays: every
#:     slice of the destination passes through relay (L-2, its position),
#:     which is alive, so losing its stage-mates costs it nothing.
#: (B) Delivers nothing although every stage keeps d live relays: the
#:     destination's relay two stages up, (2, 0), is dead, so no slice
#:     reaches it before the flush.  The one live stage-3 relay held no
#:     slice when the single flush fired, so it regenerates nothing; the
#:     slice stage 2 regenerates reaches it afterwards and is forwarded on
#:     its lane, to (4, 1).
PREMISE_EXCEPTIONS = {
    ("A", (3, 2, 2)): {((1, 0),), ((1, 0), (3, 0))},
    ("A", (3, 2, 3)): {
        ((1, 0), (1, 2), *stage2, *stage3)
        for stage2 in ((), ((2, 0),), ((2, 1),), ((2, 2),))
        for stage3 in ((), ((3, 0),), ((3, 2),), ((3, 0), (3, 2)))
    },
    ("A", (3, 3, 3)): {
        (*stage1, *stage3)
        for stage1 in (((1, 0),), ((1, 2),), ((1, 0), (1, 2)))
        for stage3 in ((), ((3, 0),), ((3, 2),), ((3, 0), (3, 2)))
    },
    ("A", (4, 2, 2)): {((2, 1),), ((2, 1), (4, 1))},
    ("B", (4, 1, 2)): {
        ((1, 0), (2, 0), (3, 1)),
        ((1, 1), (2, 0), (3, 0)),
        ((1, 0), (2, 0), (3, 1), (4, 1)),
        ((1, 1), (2, 0), (3, 0), (4, 1)),
    },
}


@pytest.mark.parametrize("world", WORLDS, ids=lambda world: "L{}-d{}-dp{}".format(*world))
def test_stage_premise_against_the_protocol_on_every_failure_pattern(world):
    path_length, d, d_prime = world
    seed, _source, flow = oracle.place_destination_last(path_length, d, d_prime)
    destination = flow.graph.position_of(flow.graph.destination)
    others = [
        (m, a)
        for m in range(1, path_length + 1)
        for a in range(d_prime)
        if (m, a) != (path_length, destination)
    ]
    misjudged = {("A", world): set(), ("B", world): set()}
    for count in range(len(others) + 1):
        for failed in itertools.combinations(others, count):
            delivered = oracle.packet_level_success(*world, list(failed), seed=seed)
            assert delivered == flush_model_delivers(*world, set(failed), destination), failed
            if delivered != stage_premise(*world, set(failed)):
                misjudged["A" if delivered else "B", world].add(failed)
    expected = {key: PREMISE_EXCEPTIONS.get(key, set()) for key in misjudged}
    assert misjudged == expected


def test_packet_level_agrees_with_model_success_case():
    # One failure per stage with d'=3, d=2 is survivable.
    failures = [(1, 0), (2, 1), (3, 2)]
    assert oracle.packet_level_success(3, 2, 3, failures)


def test_packet_level_agrees_with_model_failure_case():
    # Every node of one stage fails with d'=3, d=2: the stage drops below d.
    failures = [(2, 0), (2, 1), (2, 2)]
    assert not oracle.packet_level_success(3, 2, 3, failures)


def test_packet_level_reports_unplaceable_destination(monkeypatch):
    # A source whose graphs never put the destination in the last stage: the
    # search must fail with a named error (not an assert stripped by -O).
    class NeverLastStage:
        def __init__(self, *args, **kwargs):
            pass

        def establish_flow(self, relays, destination):
            return SimpleNamespace(graph=SimpleNamespace(destination_stage=1))

    monkeypatch.setattr(oracle, "Source", NeverLastStage)
    with pytest.raises(SimulationError, match="path_length=3, d=2, d_prime=3, seed=5"):
        oracle.packet_level_success(3, 2, 3, [(1, 0)])
