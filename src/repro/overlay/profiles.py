"""Testbed profiles: the paper's LAN and a PlanetLab-like wide-area overlay.

A profile knows how to turn a list of addresses into a
:class:`~repro.overlay.network.NetworkModel`.  Per-connection capacity is not
a profile field: the drivers pick it per profile
(:func:`~repro.experiments.throughput.connection_bps_for`), and the churn
models live in :mod:`repro.overlay.churn`.

Where these profiles stand in for the paper's physical testbeds (§5, §7) is
mapped in docs/ARCHITECTURE.md; the knobs below are the calibration points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkModel, NodeResources, heterogeneous_network, uniform_network


@dataclass(frozen=True)
class OverlayProfile:
    """A named testbed configuration."""

    name: str
    latency_seconds: float
    latency_sigma: float
    resources: NodeResources
    heterogeneous: bool

    def build_network(
        self, addresses: list[str], rng: np.random.Generator | None = None
    ) -> NetworkModel:
        """Instantiate the network model for a concrete set of addresses."""
        if not self.heterogeneous:
            return uniform_network(addresses, self.latency_seconds, self.resources)
        rng = np.random.default_rng() if rng is None else rng
        return heterogeneous_network(
            addresses,
            rng,
            latency_mean=self.latency_seconds,
            latency_sigma=self.latency_sigma,
            base_resources=self.resources,
        )


#: The paper's local testbed: 1 Gbps switched LAN, 2.8 GHz Pentiums, no churn.
LAN_PROFILE = OverlayProfile(
    name="lan",
    latency_seconds=0.0002,
    latency_sigma=0.0,
    resources=NodeResources(
        coding_seconds_per_byte_per_d=8e-9,
        symmetric_seconds_per_byte=4e-9,
        pk_encrypt_seconds=0.0015,
        pk_decrypt_seconds=0.006,
        load_factor=1.0,
    ),
    heterogeneous=False,
)

#: PlanetLab-like wide-area overlay: tens-of-milliseconds RTTs and contended
#: CPUs.  The load model is per node:
#: :func:`~repro.overlay.network.heterogeneous_network` draws each node's
#: load factor as ``1 + 4·Pareto(2.5)`` over these cost anchors.
PLANETLAB_PROFILE = OverlayProfile(
    name="planetlab",
    latency_seconds=0.04,
    latency_sigma=0.6,
    resources=NodeResources(
        coding_seconds_per_byte_per_d=8e-9,
        symmetric_seconds_per_byte=4e-9,
        pk_encrypt_seconds=0.0015,
        pk_decrypt_seconds=0.006,
    ),
    heterogeneous=True,
)

PROFILES: dict[str, OverlayProfile] = {
    profile.name: profile for profile in (LAN_PROFILE, PLANETLAB_PROFILE)
}


def get_profile(name: str) -> OverlayProfile:
    """Look up a profile by name ("lan" or "planetlab")."""
    try:
        return PROFILES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown profile {name!r}; available: {sorted(PROFILES)}"
        ) from exc
