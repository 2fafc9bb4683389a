"""The known `slicing-churn` loss, replayed on every host whatever its speed.

``perfbench``'s churn workload seeds each round by its index alone, so
whether a timed run reaches round index 140 depends on how fast the host
is; this test replays that round directly.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import RoundLog, round_seed  # noqa: E402


class _LossLog(RoundLog):
    """A round log that also keeps the sequence numbers it did not get back."""

    lost: list[int]

    def verify(self, sent: list[bytes], delivered: dict[int, bytes]) -> None:
        self.lost = [seq for seq, message in enumerate(sent) if delivered.get(seq) != message]
        super().verify(sent, delivered)


def test_churn_seed_1_round_140_loses_exactly_seq_403():
    """The one known loss: seq 403 of ``slicing-churn`` at ``--seed 1``, round 140.

    The workload kills stage 2's lane-0 relay before burst 4.  In this round
    that relay carried all three of the destination's slices of seq 403, so
    the destination holds only the three slices the stage-3 relays
    regenerate, and those three are collinear (CHANGES.md, the FOUND line on
    seq 403).  A change in ``src/`` that removes the loss flips this test and
    says so in CHANGES.md.
    """
    log = _LossLog(HostSpeed(), 140)
    workloads.slicing_churn(log, round_seed(1, 140))
    assert log.lost == [403]
    assert (log.sent, log.failed) == (512, 1)
    assert log.counters["regenerated_slices"] == 768
