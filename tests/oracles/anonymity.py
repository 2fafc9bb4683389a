"""The anonymity Monte-Carlo (§6.2, Appendix A): the oracle for the exact DP.

The batched sampler draws every trial of a parameter point as one
``(trials, L, d')`` boolean array (:func:`sample_stage_layout_batch`), and
:class:`AttackerViewBatch` derives the exposed-stage masks, longest
consecutive-exposed runs and Case-1 decodability with vectorised kernels.
:func:`simulate_anonymity_trials` then applies the Appendix-A assignments of
:mod:`repro.anonymity.analysis` per trial.

Its own reference is the per-trial :class:`StageLayout` / :class:`AttackerView`
of plain Python objects, evaluated the way the appendix reads; it draws
through the same sampler, so a seed gives both the same trial set and the
same per-trial values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anonymity.analysis import (
    AnonymityResult,
    _destination_anonymity_from_chain,
    _source_anonymity_from_chain,
)


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


# -- the batched sampler and attacker view -----------------------------------------


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


@dataclass(frozen=True)
class AnonymityTrialValues:
    """Per-trial outcomes of one Monte-Carlo run, before averaging."""

    source_anonymity: np.ndarray
    destination_anonymity: np.ndarray
    source_case1: np.ndarray
    destination_case1: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.source_anonymity.size)

    def result(self) -> AnonymityResult:
        """The sample means: the Monte-Carlo estimate of :func:`exact_anonymity`."""
        return AnonymityResult(
            source_anonymity=float(self.source_anonymity.mean()),
            destination_anonymity=float(self.destination_anonymity.mean()),
            source_case1=float(self.source_case1.mean()),
            destination_case1=float(self.destination_case1.mean()),
        )


def simulate_anonymity_trials(
    num_nodes: int,
    path_length: int,
    d: int,
    fraction_malicious: float,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
    d_prime: int | None = None,
) -> AnonymityTrialValues:
    """Run one parameter point through the batched sampler; per-trial values."""
    rng = np.random.default_rng() if rng is None else rng
    layouts = sample_stage_layout_batch(
        trials=trials,
        path_length=path_length,
        d=d,
        fraction_malicious=fraction_malicious,
        rng=rng,
        d_prime=d_prime,
    )
    views = AttackerViewBatch.from_layouts(layouts)
    d_prime = layouts.d_prime
    # For a fixed parameter point the Appendix-A assignment is a pure function
    # of the longest exposed chain length s in {0, ..., L + 1}: tabulate it
    # once and gather per trial.
    chain_lengths = range(path_length + 2)
    args = (num_nodes, path_length, d_prime, fraction_malicious)
    source_table = np.array([_source_anonymity_from_chain(s, *args) for s in chain_lengths])
    destination_table = np.array(
        [_destination_anonymity_from_chain(s, *args) for s in chain_lengths]
    )
    s = views.longest_chain_length
    source = np.where(views.first_stage_decodable, 0.0, source_table[s])
    destination = np.where(
        views.decodable_stage_before_destination, 0.0, destination_table[s]
    )
    return AnonymityTrialValues(
        source_anonymity=source,
        destination_anonymity=destination,
        source_case1=views.first_stage_decodable.copy(),
        destination_case1=views.decodable_stage_before_destination.copy(),
    )


def simulate_anonymity_batch(*args, **kwargs) -> AnonymityResult:
    """The averages of :func:`simulate_anonymity_trials`."""
    return simulate_anonymity_trials(*args, **kwargs).result()


# -- the per-trial reference -------------------------------------------------------


@dataclass(frozen=True)
class StageLayout:
    """One graph instance: ``malicious[l][i]`` flags node ``i`` of stage ``l``.

    Stage 0 is the source stage, never malicious; ``destination_stage`` /
    ``destination_position`` locate the receiver.
    """

    malicious: tuple[tuple[bool, ...], ...]
    destination_stage: int
    destination_position: int
    d: int
    d_prime: int

    @property
    def path_length(self) -> int:
        return len(self.malicious) - 1

    def stage_malicious_count(self, stage: int) -> int:
        return sum(self.malicious[stage])

    def stage_has_malicious(self, stage: int) -> bool:
        return any(self.malicious[stage])


def layout_of(layouts: StageLayoutBatch, trial: int) -> StageLayout:
    """One trial of a sampled batch as a :class:`StageLayout`."""
    return StageLayout(
        malicious=tuple(
            tuple(bool(flag) for flag in stage) for stage in layouts.malicious[trial]
        ),
        destination_stage=int(layouts.destination_stage[trial]),
        destination_position=int(layouts.destination_position[trial]),
        d=layouts.d,
        d_prime=layouts.d_prime,
    )


def _longest_true_run(values: list[bool]) -> tuple[int, int]:
    """Return (start, length) of the longest run of True values.

    Ties resolve to the *first* longest run, and an empty or all-False input
    yields ``(0, 0)``:

    >>> _longest_true_run([True, True, False, True, True, True])
    (3, 3)
    >>> _longest_true_run([True, True, False, True, True])
    (0, 2)
    >>> _longest_true_run([])
    (0, 0)
    """
    best_start, best_length = 0, 0
    current_start, current_length = 0, 0
    for index, value in enumerate(values):
        if value:
            if current_length == 0:
                current_start = index
            current_length += 1
            if current_length > best_length:
                best_start, best_length = current_start, current_length
        else:
            current_length = 0
    return best_start, best_length


@dataclass
class AttackerView:
    """What a colluding adversary can infer from one graph instance."""

    layout: StageLayout
    exposed_stages: tuple[bool, ...]
    longest_chain_start: int
    longest_chain_length: int
    first_stage_decodable: bool
    decodable_stage_before_destination: bool

    @classmethod
    def from_layout(cls, layout: StageLayout) -> "AttackerView":
        num_stages = len(layout.malicious)  # L + 1 including the source stage
        # Stage j is exposed when the attacker has a vantage point onto it: a
        # malicious node in stage j itself, a malicious child (which sees all
        # of stage j as its parents) or a malicious parent (which sees all of
        # stage j as its children).
        exposed = []
        for stage in range(num_stages):
            own = layout.stage_has_malicious(stage) if stage >= 1 else False
            before = stage - 1 >= 1 and layout.stage_has_malicious(stage - 1)
            after = stage + 1 < num_stages and layout.stage_has_malicious(stage + 1)
            exposed.append(own or before or after)
        start, length = _longest_true_run(exposed)
        # Case-1 conditions: the attacker decodes everything downstream of a
        # stage in which it controls at least d of the d' relays.
        first_stage_decodable = layout.stage_malicious_count(1) >= layout.d
        decodable_before_destination = any(
            layout.stage_malicious_count(stage) >= layout.d
            for stage in range(1, layout.destination_stage)
        )
        return cls(
            layout=layout,
            exposed_stages=tuple(exposed),
            longest_chain_start=start,
            longest_chain_length=length,
            first_stage_decodable=first_stage_decodable,
            decodable_stage_before_destination=decodable_before_destination,
        )


def source_anonymity_for_view(
    view: AttackerView, num_nodes: int, fraction_malicious: float
) -> float:
    """Source anonymity of one graph instance (Appendix A.1)."""
    if view.first_stage_decodable:
        return 0.0
    layout = view.layout
    return _source_anonymity_from_chain(
        view.longest_chain_length,
        num_nodes,
        layout.path_length,
        layout.d_prime,
        fraction_malicious,
    )


def destination_anonymity_for_view(
    view: AttackerView, num_nodes: int, fraction_malicious: float
) -> float:
    """Destination anonymity of one graph instance (Appendix A.2)."""
    if view.decodable_stage_before_destination:
        return 0.0
    layout = view.layout
    return _destination_anonymity_from_chain(
        view.longest_chain_length,
        num_nodes,
        layout.path_length,
        layout.d_prime,
        fraction_malicious,
    )


def scalar_anonymity_trials(
    num_nodes: int,
    path_length: int,
    d: int,
    fraction_malicious: float,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
    d_prime: int | None = None,
) -> AnonymityTrialValues:
    """Per-trial values of one parameter point, one attacker view at a time."""
    rng = np.random.default_rng() if rng is None else rng
    layouts = sample_stage_layout_batch(
        trials, path_length, d, fraction_malicious, rng, d_prime=d_prime
    )
    source = np.empty(trials, dtype=float)
    destination = np.empty(trials, dtype=float)
    source_case1 = np.empty(trials, dtype=bool)
    destination_case1 = np.empty(trials, dtype=bool)
    for trial in range(trials):
        view = AttackerView.from_layout(layout_of(layouts, trial))
        source_case1[trial] = view.first_stage_decodable
        destination_case1[trial] = view.decodable_stage_before_destination
        source[trial] = source_anonymity_for_view(view, num_nodes, fraction_malicious)
        destination[trial] = destination_anonymity_for_view(
            view, num_nodes, fraction_malicious
        )
    return AnonymityTrialValues(source, destination, source_case1, destination_case1)


def scalar_anonymity(*args, **kwargs) -> AnonymityResult:
    """The averages of :func:`scalar_anonymity_trials`."""
    return scalar_anonymity_trials(*args, **kwargs).result()
