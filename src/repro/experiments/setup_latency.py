"""Route-setup latency experiments (§7.4 — Figs. 14 and 15).

Setup latency is measured end-to-end: from the instant the source stage
injects the setup packets until the last relay stage has decoded its routing
information (the paper places the receiver in the last stage for this
measurement, so "last stage decoded" is the graph-complete instant).

The onion-routing baseline sets up its circuit by forwarding the real
layered onion hop by hop (a few hundred bytes at the outermost layer for the
paper's path lengths); each relay pays one public-key decryption plus the
same per-setup-packet daemon handling constant the slicing runtime charges
(:data:`~repro.overlay.node.DEFAULT_SETUP_PROCESSING_OVERHEAD`) before
passing the (smaller) onion on, and the measurement ends when the last relay
has peeled its layer and the acknowledgement returns.

Both schemes run through the unified
:class:`~repro.overlay.runtime.ProtocolRuntime` interface —
:func:`measure_setup` is the one driver behind both figures, sharing its
per-scheme construction with the throughput driver
(:func:`~repro.experiments.throughput.prepare_scheme_transfer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..overlay.profiles import OverlayProfile
from .throughput import SCHEMES, prepare_scheme_transfer


@dataclass(frozen=True)
class SetupLatencyResult:
    """Route-setup measurement plus its structural (backend-parity) fields.

    ``setup_seconds`` is clock-dependent; ``setup_complete``,
    ``relays_decoded`` and the counters are identical between the ``sim``
    and ``aio`` backends under a shared seed (on profiles where setup beats
    the flush timeout).
    """

    protocol: str
    path_length: int
    d: int
    setup_seconds: float
    setup_complete: bool = True
    relays_decoded: int = 0
    relay_counters: dict = field(default_factory=dict)
    net_counters: dict = field(default_factory=dict)

    def parity_fields(self) -> dict:
        """The structural fields asserted identical across backends."""
        return {
            "complete": self.setup_complete,
            "relays_decoded": self.relays_decoded,
            "relay": dict(self.relay_counters),
            "net": dict(self.net_counters),
        }


def measure_setup(
    scheme: str,
    profile: OverlayProfile,
    path_length: int,
    d: int = 1,
    seed: int = 17,
    backend: str = "sim",
) -> SetupLatencyResult:
    """Unified driver: time one scheme's route establishment on a profile.

    Slicing runs with ``d' = d`` (no added redundancy), as Figs. 14–15 do.
    """
    substrate, runtime, relays, destination = prepare_scheme_transfer(
        scheme, profile, path_length, d, d, seed, "batched", backend
    )
    try:
        start = substrate.sim.now
        runtime.establish(relays, destination)
        substrate.sim.run()
        setup_seconds = runtime.setup_seconds()
        setup_complete = setup_seconds is not None
        if setup_seconds is None:
            # Setup did not finish (should not happen without churn); report the
            # time the simulation drained as an upper bound.
            setup_seconds = substrate.sim.now - start
        return SetupLatencyResult(
            protocol=SCHEMES[scheme].label,
            path_length=path_length,
            d=d,
            setup_seconds=setup_seconds,
            setup_complete=setup_complete,
            relays_decoded=len(runtime.progress.relay_decode_times),
            relay_counters=runtime.relay_counters(),
            net_counters=runtime.network_counters(),
        )
    finally:
        substrate.close()
