"""Unified protocol-runtime interface over the simulated overlay substrate.

Figs. 11–15 compare information slicing against onion routing (and its
erasure-coded variant) over *identical* substrates: same latencies, same
per-node CPU model, same per-connection capacity.  Historically every scheme
had a bespoke driver loop inside the experiment modules; this module defines
the one interface they all implement, so the experiments drive every scheme
through the same two calls:

1. :meth:`ProtocolRuntime.establish` — inject the scheme's route setup;
2. :meth:`ProtocolRuntime.send_messages` — ship a burst of data messages.

Progress is observable through the shared
:class:`~repro.overlay.node.FlowProgress` (delivered messages and per-relay
setup instants) and :meth:`ProtocolRuntime.setup_seconds`.

Concrete runtimes: :class:`SlicingProtocolRuntime` (here) wraps the real
relay engines via :class:`~repro.overlay.node.SlicingRuntime`;
``OnionProtocolRuntime`` and ``OnionErasureProtocolRuntime`` live in
:mod:`repro.baselines.runtime` and register themselves under ``"onion"`` and
``"onion-erasure"``.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import fields as dataclass_fields
from typing import Callable

import numpy as np

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

    #: Registry key; subclasses set this and call :func:`register_runtime`.
    scheme: str = ""

    #: Overlay transport backends the scheme supports.  Every shipped scheme
    #: runs on both, but a runtime that depends on simulator-only facilities
    #: can narrow this; the CLI rejects mismatched ``--scheme``/``--backend``
    #: combinations with a one-line error (see :func:`runtime_backends`).
    backends: tuple[str, ...] = ("sim", "aio")

    def __init__(self, substrate: OverlayTransport) -> None:
        self.substrate = substrate
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

    @abc.abstractmethod
    def setup_seconds(self) -> float | None:
        """Measured route-setup latency, or None if setup never completed."""

    # -- structural observables (backend-parity surface) ---------------------------
    #
    # These are the fields asserted identical between the simulated and the
    # asyncio backend under a shared seed: *what* was delivered and *how
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


#: Overlay transport backends selectable on the registry and the CLI.
SUBSTRATE_BACKENDS = ("sim", "aio")


def build_substrate(
    backend: str, network: NetworkModel, connection_bps: float, **kwargs
) -> OverlayTransport:
    """Instantiate an overlay transport backend by name.

    ``"sim"`` is the discrete-event simulator; ``"aio"`` runs the same
    protocol runtimes over real asyncio TCP streams
    (:class:`~repro.overlay.aio.AioOverlayNetwork` — loopback by default,
    any interface via its ``bind_host`` knob).  Extra keyword arguments go
    to the backend constructor (e.g. ``pace=`` for the aio backend's
    wall-clock link shaping).

    The aio backend also honours two environment knobs so experiment code
    that never touches constructor kwargs — the registered figure runners —
    can still be deployed off-loopback or over the authenticated transport:
    ``REPRO_AIO_HOST`` (bind/dial address, default ``127.0.0.1``) and
    ``REPRO_AIO_TRANSPORT`` (``plain`` | ``secure``).  Explicit kwargs win
    over the environment.  Structural results are bit-identical across all
    of these settings (``tests/test_aio_backend.py`` compares sim, plain aio
    and secure aio selected either way; CI's ``aio-parity`` job ``cmp``s the
    plain-aio figure artifacts).
    """
    if backend == "sim":
        return SimulatedOverlayNetwork(network, connection_bps=connection_bps, **kwargs)
    if backend == "aio":
        import os

        from .aio import AioOverlayNetwork

        env_host = os.environ.get("REPRO_AIO_HOST")
        if env_host and "bind_host" not in kwargs:
            kwargs["bind_host"] = env_host
        env_transport = os.environ.get("REPRO_AIO_TRANSPORT")
        if env_transport and "transport" not in kwargs:
            kwargs["transport"] = env_transport
        return AioOverlayNetwork(network, connection_bps=connection_bps, **kwargs)
    known = ", ".join(SUBSTRATE_BACKENDS)
    raise KeyError(f"unknown overlay backend {backend!r} (known: {known})")


#: Registered runtime factories by scheme name.
RUNTIME_SCHEMES: dict[str, Callable[..., ProtocolRuntime]] = {}


def register_runtime(name: str, factory: Callable[..., ProtocolRuntime]) -> None:
    """Register a runtime factory; names must be unique."""
    if name in RUNTIME_SCHEMES:
        raise ValueError(f"runtime scheme {name!r} is already registered")
    RUNTIME_SCHEMES[name] = factory


def build_runtime(scheme: str, substrate: SimulatedOverlayNetwork, **kwargs) -> ProtocolRuntime:
    """Instantiate the runtime registered under ``scheme``."""
    _ensure_runtimes_loaded()
    try:
        factory = RUNTIME_SCHEMES[scheme]
    except KeyError:
        known = ", ".join(sorted(RUNTIME_SCHEMES))
        raise KeyError(f"unknown runtime scheme {scheme!r} (known: {known})") from None
    return factory(substrate, **kwargs)


def runtime_schemes() -> list[str]:
    """Sorted names of every registered protocol runtime."""
    _ensure_runtimes_loaded()
    return sorted(RUNTIME_SCHEMES)


def runtime_backends(scheme: str) -> tuple[str, ...]:
    """The overlay backends the runtime registered under ``scheme`` supports.

    Factories that are not :class:`ProtocolRuntime` subclasses (plain
    callables) are assumed to support every substrate backend.
    """
    _ensure_runtimes_loaded()
    try:
        factory = RUNTIME_SCHEMES[scheme]
    except KeyError:
        known = ", ".join(sorted(RUNTIME_SCHEMES))
        raise KeyError(f"unknown runtime scheme {scheme!r} (known: {known})") from None
    return tuple(getattr(factory, "backends", SUBSTRATE_BACKENDS))


def _ensure_runtimes_loaded() -> None:
    # Importing the baselines registers their runtimes, mirroring how the
    # experiment registry loads its definitions.
    from ..baselines import runtime as _baseline_runtimes  # noqa: F401


class SlicingProtocolRuntime(ProtocolRuntime):
    """Information slicing through the real relay engines (§4, §7).

    Parameters mirror the paper: split factor ``d``, redundancy ``d'`` and
    path length ``L``.  ``source_stage`` names the ``d'`` addresses the
    source controls (they must be part of the substrate's network model).
    """

    scheme = "slicing"

    def __init__(
        self,
        substrate: OverlayTransport,
        source_stage: list[str],
        d: int,
        path_length: int,
        d_prime: int | None = None,
        rng: np.random.Generator | None = None,
        runtime_kwargs: dict | None = None,
    ) -> None:
        super().__init__(substrate)
        self.source = Source(
            source_stage[0],
            source_stage[1:],
            d=d,
            d_prime=d_prime,
            path_length=path_length,
            rng=rng,
        )
        self.runtime = SlicingRuntime(substrate, **(runtime_kwargs or {}))
        self.flow: FlowSetup | None = None

    def establish(self, relays: list[str], destination: str) -> FlowProgress:
        self.flow = self.source.establish_flow(relays, destination)
        self.progress = self.runtime.start_flow(self.source, self.flow)
        return self.progress

    def send_messages(self, messages: list[bytes]) -> None:
        assert self.flow is not None, "establish() must run before send_messages()"
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


register_runtime(SlicingProtocolRuntime.scheme, SlicingProtocolRuntime)
