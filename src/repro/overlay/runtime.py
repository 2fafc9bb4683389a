"""Unified protocol-runtime interface over the overlay substrate.

Figs. 11–15 compare information slicing against onion routing over
*identical* substrates: same latencies, same per-node CPU model, same
per-connection capacity.  This module defines the one interface every scheme
implements, so the experiments drive each scheme through the same
constructor and the same two calls:

1. :meth:`ProtocolRuntime.establish` — inject the scheme's route setup;
2. :meth:`ProtocolRuntime.send_messages` — ship a burst of data messages.

Progress is observable through the shared
:class:`~repro.overlay.node.FlowProgress` (delivered messages and per-relay
setup instants) and :meth:`ProtocolRuntime.setup_seconds`.

Concrete runtimes: :class:`SlicingProtocolRuntime` (here) wraps the real
relay engines via :class:`~repro.overlay.node.SlicingRuntime`;
``OnionProtocolRuntime`` and its Sphinx-format variant
``SphinxProtocolRuntime`` live in :mod:`repro.baselines.runtime`.  Which
schemes exist, and the label and address plan of each, is the one ``SCHEMES``
table in :mod:`repro.experiments.throughput`.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import fields as dataclass_fields

import numpy as np

from ..core.errors import SimulationError
from ..core.relay import RelayStats
from ..core.source import FlowSetup, Source
from .network import NetworkModel
from .node import (
    FlowProgress,
    OverlayTransport,
    SimulatedOverlayNetwork,
    SlicingRuntime,
)


class ProtocolRuntime(abc.ABC):
    """One anonymous transfer (setup + data burst) of one scheme."""

    #: The scheme's key in ``SCHEMES`` (names it in error messages).
    scheme: str = ""

    def __init__(
        self,
        substrate: OverlayTransport,
        source_stage: list[str],
        path_length: int,
        d: int = 1,
        d_prime: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Every scheme takes the same arguments; each reads what it needs.

        ``source_stage`` is the scheme's stage-0 addresses (the circuit
        schemes send from its first), ``d`` / ``d_prime`` the split factor
        and per-stage redundancy (unused by the circuit schemes).
        """
        self.substrate = substrate
        self.source_stage = list(source_stage)
        self.path_length = path_length
        self.d = d
        self.d_prime = d if d_prime is None else d_prime
        self.rng = np.random.default_rng() if rng is None else rng
        self.progress = FlowProgress()

    @property
    def sim(self):
        return self.substrate.sim

    @abc.abstractmethod
    def establish(self, relays: list[str], destination: str) -> FlowProgress:
        """Inject the scheme's route setup; returns the progress tracker.

        The caller drives the simulator (``substrate.sim.run()``) afterwards;
        nothing is processed until it does.
        """

    @abc.abstractmethod
    def send_messages(self, messages: list[bytes]) -> None:
        """Code/wrap and inject a burst of data messages."""

    def _require_established(self, handle: object) -> None:
        """Reject ``send_messages`` before ``establish`` (``handle`` is still None)."""
        if handle is None:
            raise SimulationError(
                f"{self.scheme}: establish() must run before send_messages()"
            )

    @abc.abstractmethod
    def setup_seconds(self) -> float | None:
        """Measured route-setup latency, or None if setup never completed."""

    # -- structural observables (backend-parity surface) ---------------------------
    #
    # These are the fields asserted identical between the simulated and the
    # socket backend under a shared seed: *what* was delivered and *how
    # much* work the relays did — never virtual/wall timestamps.

    def delivered_plaintexts(self) -> dict[int, bytes]:
        """Messages the destination decoded, by sequence number."""
        return {}

    def delivered_digest(self) -> str:
        """Order-independent digest of the delivered (seq, plaintext) pairs."""
        delivered = self.delivered_plaintexts()
        digest = hashlib.sha256()
        for seq in sorted(delivered):
            digest.update(seq.to_bytes(8, "big"))
            digest.update(delivered[seq])
        return digest.hexdigest()

    def relay_counters(self) -> dict[str, int]:
        """Aggregate relay-engine counters (empty for engines without stats)."""
        return {}

    def network_counters(self) -> dict[str, int]:
        """The substrate's transport counters (packets/bytes sent, drops)."""
        stats = self.substrate.stats
        return {
            "packets_sent": stats.packets_sent,
            "packets_dropped": stats.packets_dropped,
            "bytes_sent": stats.bytes_sent,
        }


def aggregate_relay_stats(relays) -> dict[str, int]:
    """Sum :class:`~repro.core.relay.RelayStats` counters across relay engines."""
    totals = {field.name: 0 for field in dataclass_fields(RelayStats)}
    for relay in relays:
        for name in totals:
            totals[name] += getattr(relay.stats, name)
    return totals


#: Overlay transport backends selectable by name (the CLI's ``--backend``).
SUBSTRATE_BACKENDS = ("sim", "aio")


def build_substrate(
    backend: str, network: NetworkModel, connection_bps: float
) -> OverlayTransport:
    """Instantiate an overlay transport backend by name.

    ``"sim"`` is the discrete-event simulator; ``"aio"`` runs the same
    protocol runtimes over real TCP sockets
    (:class:`~repro.overlay.aio.AioOverlayNetwork`).  The aio backend takes
    its one deployment setting from the environment, read and checked by
    :func:`~repro.overlay.aio.environment_settings`: ``REPRO_AIO_HOST``
    (bind/dial address, default ``127.0.0.1``).  Structural results are
    bit-identical across backends and hosts (``tests/test_aio_backend.py``
    compares the simulator with aio on the default and a named host; CI's
    ``aio-parity`` job ``cmp``s the aio figure artifacts).
    """
    if backend == "sim":
        return SimulatedOverlayNetwork(network, connection_bps=connection_bps)
    if backend == "aio":
        from .aio import AioOverlayNetwork, environment_settings

        return AioOverlayNetwork(
            network, connection_bps=connection_bps, **environment_settings()
        )
    known = ", ".join(SUBSTRATE_BACKENDS)
    raise KeyError(f"unknown overlay backend {backend!r} (known: {known})")


class SlicingProtocolRuntime(ProtocolRuntime):
    """Information slicing through the real relay engines (§4, §7).

    Parameters mirror the paper: split factor ``d``, redundancy ``d'`` and
    path length ``L``.  ``source_stage`` names the ``d'`` addresses the
    source controls (they must be part of the substrate's network model).
    """

    scheme = "slicing"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.source = Source(
            self.source_stage[0],
            self.source_stage[1:],
            d=self.d,
            d_prime=self.d_prime,
            path_length=self.path_length,
            rng=self.rng,
        )
        self.runtime = SlicingRuntime(self.substrate)
        self.flow: FlowSetup | None = None

    def establish(self, relays: list[str], destination: str) -> FlowProgress:
        self.flow = self.source.establish_flow(relays, destination)
        self.progress = self.runtime.start_flow(self.source, self.flow)
        return self.progress

    def send_messages(self, messages: list[bytes]) -> None:
        self._require_established(self.flow)
        self.runtime.send_messages(self.source, self.flow, messages)

    def setup_seconds(self) -> float | None:
        """Time until the last relay stage decoded its routing information."""
        if self.flow is None:
            return None
        last_stage = self.flow.graph.stages[-1]
        complete = self.progress.setup_complete_time(last_stage)
        if complete is None:
            return None
        return complete - self.progress.setup_injected_at

    def delivered_plaintexts(self) -> dict[int, bytes]:
        if self.flow is None:
            return {}
        relay = self.runtime.relays.get(self.flow.destination)
        if relay is None:
            return {}
        return relay.delivered_messages(self.flow.plan.flow_ids[self.flow.destination])

    def relay_counters(self) -> dict[str, int]:
        return aggregate_relay_stats(self.runtime.relays.values())
