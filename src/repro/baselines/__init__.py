"""Baseline systems: onion routing, onion + erasure codes, Chaum mixes.

The onion baselines also ship as :class:`~repro.overlay.runtime.ProtocolRuntime`
implementations (:mod:`repro.baselines.runtime`), so the throughput and
setup-latency figures drive them through the same driver as information
slicing.
"""

from .chaum import ChaumAnonymityResult, exact_chaum_anonymity
from .erasure import ErasureCoder, ErasureShare
from .onion import OnionCircuit, OnionDirectory, OnionRelay, OnionSource, run_circuit
from .onion_erasure import (
    MultiPathCircuits,
    OnionErasureSource,
    run_multipath_transfer,
)
from .runtime import OnionErasureProtocolRuntime, OnionProtocolRuntime

__all__ = [
    "OnionDirectory",
    "OnionSource",
    "OnionRelay",
    "OnionCircuit",
    "run_circuit",
    "ErasureCoder",
    "ErasureShare",
    "OnionErasureSource",
    "MultiPathCircuits",
    "run_multipath_transfer",
    "ChaumAnonymityResult",
    "exact_chaum_anonymity",
    "OnionProtocolRuntime",
    "OnionErasureProtocolRuntime",
]
