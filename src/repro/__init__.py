"""Information Slicing: Anonymity Using Unreliable Overlays — reproduction.

This package reproduces the system described in *Information Slicing:
Anonymity Using Unreliable Overlays* (Katti, Cohen, Katabi — NSDI 2007 /
MIT-CSAIL-TR-2007-013): an anonymous communication protocol that replaces
onion routing's layered public-key encryption with random linear coding over
vertex-disjoint overlay paths.

Top-level convenience imports cover the most common entry points; the
sub-packages hold the full system:

* :mod:`repro.core` — coding, forwarding graphs, source/relay protocol engines
* :mod:`repro.crypto` — keystream cipher and the simulated PK cost model
* :mod:`repro.overlay` — discrete-event overlay simulator, churn, profiles
* :mod:`repro.baselines` — onion routing (classic and Sphinx-format), Chaum mixes
* :mod:`repro.anonymity` — entropy metric and the exact Appendix-A analysis
* :mod:`repro.resilience` — churn-resilience closed forms (Eqs. 6-7)
* :mod:`repro.experiments` — per-figure experiment runners
"""

from .core import (
    CodedBlock,
    FlowSetup,
    ForwardingGraph,
    Packet,
    PacketKind,
    Relay,
    SliceCoder,
    Source,
    build_forwarding_graph,
)

__version__ = "1.0.0"

__all__ = [
    "SliceCoder",
    "CodedBlock",
    "Source",
    "Relay",
    "FlowSetup",
    "ForwardingGraph",
    "build_forwarding_graph",
    "Packet",
    "PacketKind",
    "__version__",
]
