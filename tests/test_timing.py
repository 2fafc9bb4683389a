"""``compare_paths`` — the one wall-clock comparison protocol — on a fake clock.

No sleeps and no wall-clock thresholds: the module's ``perf_counter`` is
replaced by a counter the paths themselves advance, so every reported
millisecond is an exact function of the test's script.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments import timing
from repro.experiments.timing import compare_paths


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(timing, "perf_counter", fake)
    return fake


def scripted(clock, costs, result="same"):
    """A path whose successive calls cost ``costs`` seconds each."""
    remaining = iter(costs)

    def path():
        clock.spend(next(remaining))
        return result

    return path


def test_reports_the_per_rep_minimum_of_each_side(clock):
    # First cost on each side is the untimed warm-up; it is the largest on
    # purpose, so a row that included it would not read 20 / 4 ms.
    row = compare_paths(
        scripted(clock, [9.0, 0.050, 0.020, 0.030]),
        scripted(clock, [9.0, 0.004, 0.008, 0.006]),
        reps=3,
    )
    assert row == {
        "reference_ms": pytest.approx(20.0),
        "fast_ms": pytest.approx(4.0),
        "speedup": pytest.approx(5.0),
        "identical": True,
    }


def test_paths_alternate_so_both_see_the_same_drift(clock):
    order = []

    def path(name):
        return lambda: order.append(name)

    compare_paths(path("reference"), path("fast"), reps=2)
    assert order == ["reference", "fast"] * 3  # warm-up pair + two repetitions


def test_identity_failure_is_reported_not_raised(clock):
    answers = iter([1, 1, 2])  # the fast path drifts on the second repetition
    row = compare_paths(lambda: 1, lambda: next(answers), reps=2)
    assert row["identical"] is False
    assert set(row) == {"reference_ms", "fast_ms", "speedup", "identical"}
    # A mismatch in the warm-up pair alone is enough.
    answers = iter([0, 1, 1])
    assert compare_paths(lambda: 1, lambda: next(answers), reps=2)["identical"] is False


@dataclass(frozen=True)
class Values:
    per_trial: np.ndarray


def test_identity_understands_arrays_and_containers_of_them(clock):
    def arrays(last):
        return lambda: (np.arange(4), [Values(np.array([1, 2, last]))])

    assert compare_paths(arrays(3), arrays(3), reps=1)["identical"] is True
    assert compare_paths(arrays(3), arrays(4), reps=1)["identical"] is False


def test_factory_form_keeps_set_up_off_the_clock(clock):
    def factory(set_up_seconds, run_seconds):
        def prepare():
            clock.spend(set_up_seconds)  # e.g. route establishment

            def run():
                clock.spend(run_seconds)
                return "delivered"

            return run

        return prepare

    row = compare_paths(factory(100.0, 0.030), factory(50.0, 0.010), reps=2)
    assert row["reference_ms"] == pytest.approx(30.0)
    assert row["fast_ms"] == pytest.approx(10.0)
    assert row["identical"] is True
    # Set-up ran once per call (warm-up + 2 repetitions per side), untimed.
    assert clock.now == pytest.approx(3 * (100.0 + 0.030) + 3 * (50.0 + 0.010))
