"""Churn models: node lifetimes and the failure probability they imply (§8).

The paper's PlanetLab experiments deliberately include "failure-prone" nodes
with perceived lifetimes under 20 minutes alongside stable nodes.  We model
an overlay population as a mixture of two exponential lifetime classes.
Fig. 17 needs one number from it: the probability that a node fails within
the session, at which it evaluates the closed forms of
:mod:`repro.resilience.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import ChurnError


@dataclass(frozen=True)
class ChurnModel:
    """A two-class exponential lifetime mixture.

    ``failure_prone_fraction`` of the overlay nodes are short-lived (mean
    lifetime ``short_mean_seconds``); the rest are stable (mean lifetime
    ``long_mean_seconds``).  Lifetimes are measured from the moment a flow
    starts using the node — i.e. they are *residual* lifetimes, which for an
    exponential distribution coincide with full lifetimes.
    """

    failure_prone_fraction: float = 0.3
    short_mean_seconds: float = 15 * 60.0
    long_mean_seconds: float = 20 * 3600.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_prone_fraction <= 1.0:
            raise ChurnError(
                f"failure_prone_fraction must be in [0, 1], "
                f"got {self.failure_prone_fraction}"
            )
        if self.short_mean_seconds <= 0 or self.long_mean_seconds <= 0:
            raise ChurnError("mean lifetimes must be positive")

    def failure_probability(self, horizon_seconds: float) -> float:
        """Probability that a randomly drawn node fails within the horizon."""
        if horizon_seconds < 0:
            raise ChurnError("horizon must be non-negative")
        p_short = 1.0 - np.exp(-horizon_seconds / self.short_mean_seconds)
        p_long = 1.0 - np.exp(-horizon_seconds / self.long_mean_seconds)
        return float(
            self.failure_prone_fraction * p_short
            + (1.0 - self.failure_prone_fraction) * p_long
        )


#: Churn model matching the paper's PlanetLab experiments: a substantial
#: fraction of nodes with sub-20-minute perceived lifetimes (§8.2).
PLANETLAB_CHURN = ChurnModel(
    failure_prone_fraction=0.3,
    short_mean_seconds=15 * 60.0,
    long_mean_seconds=20 * 3600.0,
)

#: A stable testbed (the paper's LAN): nodes essentially never fail.
STABLE_CHURN = ChurnModel(
    failure_prone_fraction=0.0,
    short_mean_seconds=15 * 60.0,
    long_mean_seconds=1e9,
)
