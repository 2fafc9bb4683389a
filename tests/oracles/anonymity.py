"""The per-trial reference for the anonymity Monte-Carlo (§6.2, Appendix A).

One :class:`StageLayout` and one :class:`AttackerView` of plain Python objects
per trial, evaluated the way the appendix reads.  It draws its trials through
the shipped :func:`~repro.anonymity.attacker.sample_stage_layout_batch`, so a
seed gives it the same trial set as
:func:`~repro.anonymity.simulation.simulate_anonymity_trials`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anonymity.attacker import StageLayoutBatch, sample_stage_layout_batch
from repro.anonymity.simulation import (
    AnonymityResult,
    AnonymityTrialValues,
    _destination_anonymity_from_chain,
    _source_anonymity_from_chain,
)


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


def simulate_anonymity_trials(
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


def simulate_anonymity(*args, **kwargs) -> AnonymityResult:
    """The averages of :func:`simulate_anonymity_trials`."""
    return simulate_anonymity_trials(*args, **kwargs).result()
