"""Anonymity evaluation: entropy metric, attacker model, analysis, Monte Carlo."""

from .analysis import (
    destination_case1_probability,
    expected_destination_anonymity,
    expected_source_anonymity,
    redundancy_overhead,
    source_case1_probability,
)
from .attacker import (
    AttackerViewBatch,
    StageLayoutBatch,
    sample_stage_layout_batch,
)
from .metrics import (
    degree_of_anonymity,
    entropy,
    information_bits_missing,
    max_entropy,
    two_level_anonymity,
)
from .simulation import (
    AnonymityResult,
    AnonymityTrialValues,
    simulate_anonymity_batch,
    simulate_anonymity_trials,
    sweep_anonymity,
    sweep_malicious_fraction,
    sweep_path_length,
    sweep_redundancy,
    sweep_split_factor,
)

__all__ = [
    "entropy",
    "max_entropy",
    "degree_of_anonymity",
    "two_level_anonymity",
    "information_bits_missing",
    "StageLayoutBatch",
    "AttackerViewBatch",
    "sample_stage_layout_batch",
    "AnonymityResult",
    "AnonymityTrialValues",
    "simulate_anonymity_batch",
    "simulate_anonymity_trials",
    "sweep_anonymity",
    "sweep_malicious_fraction",
    "sweep_split_factor",
    "sweep_path_length",
    "sweep_redundancy",
    "source_case1_probability",
    "destination_case1_probability",
    "expected_source_anonymity",
    "expected_destination_anonymity",
    "redundancy_overhead",
]
