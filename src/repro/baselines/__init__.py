"""Baseline systems: onion routing, Chaum mixes.

Onion routing and its Sphinx-format variant also ship as
:class:`~repro.overlay.runtime.ProtocolRuntime` implementations
(:mod:`repro.baselines.runtime`), so the throughput and setup-latency figures
drive onion routing through the same driver as information slicing.  Onion
routing with erasure codes (§8.1) is compared analytically only, through the
closed forms in :mod:`repro.resilience.analysis`.
"""

from .chaum import ChaumAnonymityResult, exact_chaum_anonymity
from .onion import OnionCircuit, OnionDirectory, OnionRelay, OnionSource
from .runtime import OnionProtocolRuntime

__all__ = [
    "OnionDirectory",
    "OnionSource",
    "OnionRelay",
    "OnionCircuit",
    "ChaumAnonymityResult",
    "exact_chaum_anonymity",
    "OnionProtocolRuntime",
]
