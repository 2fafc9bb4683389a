"""Churn-resilience closed forms (Eqs. 6-7) behind Figs. 16 and 17."""

from .analysis import (
    onion_erasure_success_probability,
    path_survival_probability,
    slicing_success_probability,
    stage_success_probability,
    standard_onion_success_probability,
)

__all__ = [
    "onion_erasure_success_probability",
    "slicing_success_probability",
    "stage_success_probability",
    "standard_onion_success_probability",
    "path_survival_probability",
]
