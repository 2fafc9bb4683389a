"""Colluding-attacker view of a forwarding graph (§6.2, Appendix A).

The adversary controls a fraction ``f`` of the overlay.  A malicious relay
learns its parents (the full previous stage), its children (the full next
stage), and nothing else: slice contents are pi-secure and flow-ids change at
every hop, so malicious relays can link their observations only when they sit
in *consecutive* stages of the same graph.

:class:`AttackerViewBatch` condenses everything the colluding set can derive
from each graph instance of a Monte-Carlo run:

* which stages are *exposed* (their full membership is visible),
* the longest run ``s`` of consecutive exposed stages and its first stage
  ``Γ`` (the attacker's best guess at the source stage),
* whether some stage is *decodable* — at least ``d`` of its ``d'`` members
  are malicious, letting the attacker pool slices and decode the entire
  downstream graph (Case 1 of the appendix).

:class:`StageLayoutBatch` / :class:`AttackerViewBatch` hold *all* trials of a
parameter point as flat numpy arrays and derive every attacker quantity with
vectorised kernels; this is what
:func:`~repro.anonymity.simulation.simulate_anonymity_batch` builds on.  The
one-graph-instance reference written as plain Python objects, which reads
like the appendix, lives in ``tests/oracles/anonymity.py`` and is checked
against this module trial by trial
(``tests/test_anonymity_batch.py::test_batch_view_matches_scalar_view_per_trial``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _longest_true_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, length) of the longest run of True values in each row of a 2-D mask.

    Returns ``(starts, lengths)`` arrays of shape ``(rows,)``.  Ties resolve
    to the *first* longest run, and an all-False row yields ``(0, 0)``.  The
    Python loop runs over the ~``L + 1`` columns, never over the (many) rows:
    column ``j`` of ``streak`` holds, for every row at once, the length of the
    True run ending at ``j``.  ``argmax`` then finds the first column
    attaining each row's maximum streak, which is exactly the end of the
    row's first longest run.

    >>> import numpy as np
    >>> starts, lengths = _longest_true_runs(
    ...     np.array([[True, True, False, True], [False, False, False, False]])
    ... )
    >>> starts.tolist(), lengths.tolist()
    ([0, 0], [2, 0])
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected a 2-D boolean mask, got shape {mask.shape}")
    rows, cols = mask.shape
    streak = np.zeros((rows, cols), dtype=np.int64)
    if cols == 0:
        return np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=np.int64)
    streak[:, 0] = mask[:, 0]
    for col in range(1, cols):
        np.multiply(streak[:, col - 1] + 1, mask[:, col], out=streak[:, col])
    lengths = streak.max(axis=1)
    ends = streak.argmax(axis=1)
    starts = np.where(lengths > 0, ends - lengths + 1, 0)
    return starts, lengths


@dataclass(frozen=True)
class StageLayoutBatch:
    """A stack of sampled stage layouts held as flat numpy arrays.

    ``malicious[t, l, i]`` says whether node ``i`` of stage ``l`` in trial
    ``t`` is controlled by the attacker; stage 0 (the source stage) is all
    False, and so is every trial's destination slot.
    """

    malicious: np.ndarray
    destination_stage: np.ndarray
    destination_position: np.ndarray
    d: int
    d_prime: int

    @property
    def trials(self) -> int:
        return self.malicious.shape[0]

    @property
    def path_length(self) -> int:
        return self.malicious.shape[1] - 1


def sample_stage_layout_batch(
    trials: int,
    path_length: int,
    d: int,
    fraction_malicious: float,
    rng: np.random.Generator,
    d_prime: int | None = None,
) -> StageLayoutBatch:
    """Sample all Monte-Carlo trials of one parameter point in a single draw.

    Relays are drawn from a large overlay in which a fraction ``f`` of nodes
    is malicious, so each relay slot is malicious independently with
    probability ``f``.  The source stage is clean by assumption (§3c) and the
    destination is placed uniformly at random among the relay slots, and is
    of course not malicious.  Randomness is consumed in three bulk draws
    (relay flags, destination stages, destination positions).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    d_prime = d if d_prime is None else d_prime
    flags = rng.random((trials, path_length, d_prime)) < fraction_malicious
    destination_stage = rng.integers(1, path_length + 1, size=trials)
    destination_position = rng.integers(0, d_prime, size=trials)
    malicious = np.zeros((trials, path_length + 1, d_prime), dtype=bool)
    malicious[:, 1:, :] = flags
    # The destination is a clean node by construction (§3c).
    malicious[np.arange(trials), destination_stage, destination_position] = False
    return StageLayoutBatch(
        malicious=malicious,
        destination_stage=destination_stage,
        destination_position=destination_position,
        d=d,
        d_prime=d_prime,
    )


@dataclass(frozen=True)
class AttackerViewBatch:
    """The attacker view of every trial of a :class:`StageLayoutBatch`.

    Each field is an array indexed by trial (``exposed_stages`` by trial and
    stage).
    """

    layouts: StageLayoutBatch
    exposed_stages: np.ndarray
    longest_chain_start: np.ndarray
    longest_chain_length: np.ndarray
    first_stage_decodable: np.ndarray
    decodable_stage_before_destination: np.ndarray

    @classmethod
    def from_layouts(cls, layouts: StageLayoutBatch) -> "AttackerViewBatch":
        malicious = layouts.malicious
        num_stages = malicious.shape[1]  # L + 1 including the source stage
        stage_has_malicious = malicious.any(axis=2)  # stage 0 is always clean
        # A stage is exposed when the attacker has a vantage point onto it: a
        # malicious node in the stage itself, a malicious child (next stage)
        # or a malicious parent (previous stage).
        exposed = stage_has_malicious.copy()
        exposed[:, :-1] |= stage_has_malicious[:, 1:]
        exposed[:, 1:] |= stage_has_malicious[:, :-1]
        starts, lengths = _longest_true_runs(exposed)

        # Case-1 conditions: >= d of a stage's d' relays are malicious.
        counts = malicious.sum(axis=2)
        decodable = counts >= layouts.d
        first_stage_decodable = decodable[:, 1]
        stage_index = np.arange(num_stages)
        before_destination = (stage_index >= 1) & (
            stage_index < layouts.destination_stage[:, None]
        )
        decodable_before_destination = (decodable & before_destination).any(axis=1)
        return cls(
            layouts=layouts,
            exposed_stages=exposed,
            longest_chain_start=starts,
            longest_chain_length=lengths,
            first_stage_decodable=first_stage_decodable,
            decodable_stage_before_destination=decodable_before_destination,
        )
