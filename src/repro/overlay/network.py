"""Network and CPU cost models used by the simulated overlay.

The paper's evaluation ran on two substrates: a 1 Gbps switched LAN of
2.8 GHz Pentiums, and PlanetLab (wide-area RTTs, heavily loaded nodes).  The
absolute numbers in our reproduction come from these models; their *ratios*
— coding vs. public-key cost, LAN vs. WAN latency, lightly vs. heavily loaded
CPUs — are what shape the figures.

Cost anchors taken from the paper (§7.1): coding/decoding needs ``d`` finite
field multiplications per byte, and a Celeron 800 MHz coded a 1500-byte
packet with ``d = 5`` in ~60 µs, i.e. 8 ns per byte per unit of ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.errors import SimulationError


@dataclass(frozen=True)
class NodeResources:
    """Per-node CPU costs (per-connection capacity is the substrate's)."""

    #: Seconds per byte per unit of split factor for GF(2^8) coding.
    coding_seconds_per_byte_per_d: float = 8e-9
    #: Seconds per byte for symmetric (stream/AES-like) crypto.
    symmetric_seconds_per_byte: float = 4e-9
    #: Seconds per public-key encryption (onion route setup).
    pk_encrypt_seconds: float = 0.0015
    #: Seconds per public-key decryption (onion route setup).
    pk_decrypt_seconds: float = 0.006
    #: Multiplier applied to all CPU costs (models a loaded PlanetLab node).
    load_factor: float = 1.0

    def coding_time(self, payload_bytes: int, d: int) -> float:
        """CPU time to code or decode ``payload_bytes`` with split factor ``d``."""
        return self.coding_seconds_per_byte_per_d * d * payload_bytes * self.load_factor

    def symmetric_time(self, payload_bytes: int) -> float:
        """CPU time for one symmetric crypto pass over ``payload_bytes``."""
        return self.symmetric_seconds_per_byte * payload_bytes * self.load_factor

    def pk_encrypt_time(self) -> float:
        return self.pk_encrypt_seconds * self.load_factor

    def pk_decrypt_time(self) -> float:
        return self.pk_decrypt_seconds * self.load_factor


class NetworkModel:
    """Pairwise latency plus per-node resources for a set of addresses."""

    def __init__(
        self,
        resources: dict[str, NodeResources],
        latency_matrix: dict[tuple[str, str], float],
        default_latency: float = 0.05,
    ) -> None:
        self._resources = dict(resources)
        self._latency = dict(latency_matrix)
        self.default_latency = default_latency

    def resources(self, address: str) -> NodeResources:
        try:
            return self._resources[address]
        except KeyError as exc:
            raise SimulationError(f"no resources registered for {address}") from exc

    def latency(self, sender: str, receiver: str) -> float:
        """One-way propagation delay between two addresses (seconds)."""
        if sender == receiver:
            return 0.0
        key = (sender, receiver)
        if key in self._latency:
            return self._latency[key]
        reverse = (receiver, sender)
        if reverse in self._latency:
            return self._latency[reverse]
        return self.default_latency


def uniform_network(
    addresses: list[str],
    latency_seconds: float,
    resources: NodeResources,
) -> NetworkModel:
    """A homogeneous network: same latency everywhere, same resources everywhere."""
    return NetworkModel(
        resources={address: resources for address in addresses},
        latency_matrix={},
        default_latency=latency_seconds,
    )


def heterogeneous_network(
    addresses: list[str],
    rng: np.random.Generator,
    latency_mean: float,
    latency_sigma: float,
    base_resources: NodeResources,
) -> NetworkModel:
    """A wide-area style network with log-normal latencies and per-node load.

    ``latency_mean`` is the median one-way delay; ``latency_sigma`` the
    log-normal shape parameter.  Each node's CPU costs are scaled by a load
    factor ``1 + 4·Pareto(2.5)`` drawn here, a heavy-tailed spread that
    mimics contended PlanetLab nodes; ``base_resources`` supplies the cost
    anchors it scales.
    """
    load_factors = 1.0 + rng.pareto(2.5, size=len(addresses)) * 4.0
    resources = {
        address: replace(base_resources, load_factor=float(factor))
        for address, factor in zip(addresses, load_factors)
    }
    # One draw for all pairs: their order fixes which value each pair gets.
    pairs = [(a, b) for i, a in enumerate(addresses) for b in addresses[i + 1 :]]
    delays = rng.lognormal(mean=np.log(latency_mean), sigma=latency_sigma, size=len(pairs))
    latency = dict(zip(pairs, delays.tolist()))
    return NetworkModel(
        resources=resources, latency_matrix=latency, default_latency=latency_mean
    )
