"""Per-flow throughput experiments (§7.2, §7.3 — Figs. 11, 12, 13).

Every scheme runs over the same substrate
(:class:`~repro.overlay.node.SimulatedOverlayNetwork` or the socket
backend): identical per-node CPU model, per-connection capacity, latencies
and per-packet overhead.  All schemes are driven through one driver
(:func:`measure_throughput`), and :data:`SCHEMES` is the one table of which
schemes exist: each entry names the scheme's reported label, its
:class:`~repro.overlay.runtime.ProtocolRuntime` and its address plan.
``"slicing"`` runs the real relay engines over the batched overlay data
plane; ``"onion"`` runs the baseline onion engines with the paper's cost
structure (one symmetric pass per relay per cell, the source paying one pass
per layer, one connection per hop).  The figures plot those two.
``"sphinx"``, the constant-size onion format, runs the same circuit driver;
no figure plots it, and the benchmark's ``circuit-bulk`` workload is what
still drives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..baselines.runtime import OnionProtocolRuntime, SphinxProtocolRuntime
from ..core.source import Source
from ..overlay.node import OverlayTransport, SlicingRuntime
from ..overlay.profiles import OverlayProfile
from ..overlay.runtime import (
    ProtocolRuntime,
    SlicingProtocolRuntime,
    aggregate_relay_stats,
    build_substrate,
)

#: Per-connection capacity (bits/s) of the prototype's transport on a LAN —
#: what a single user-space relayed TCP connection sustains.
LAN_CONNECTION_BPS = 30e6

#: Per-connection capacity on the wide area (PlanetLab-era TCP over ~80 ms RTT).
WAN_CONNECTION_BPS = 0.9e6


def _addresses(prefix: str, count: int) -> list[str]:
    return [f"{prefix}-{index}" for index in range(count)]


@dataclass(frozen=True)
class Scheme:
    """One compared scheme: reported label, runtime class and address plan.

    ``address_plan(path_length, d_prime)`` returns the overlay addresses one
    transfer uses: (source stage, relay pool, destination).  The measurement
    drivers build their network from it.
    """

    label: str
    runtime: type[ProtocolRuntime]
    address_plan: Callable[[int, int], tuple[list[str], list[str], str]]


#: The schemes the runtimes implement, in report order: the two §7 compares,
#: then Sphinx.
SCHEMES: dict[str, Scheme] = {
    "slicing": Scheme(
        "information-slicing",
        SlicingProtocolRuntime,
        lambda length, d_prime: (
            _addresses("src", d_prime),
            _addresses("relay", max(length * d_prime * 2, 32)),
            "destination",
        ),
    ),
    "onion": Scheme(
        "onion-routing",
        OnionProtocolRuntime,
        lambda length, d_prime: (
            ["onion-source"], _addresses("onion", length), "onion-destination"
        ),
    ),
    "sphinx": Scheme(
        "sphinx-onion",
        SphinxProtocolRuntime,
        lambda length, d_prime: (
            ["sphinx-source"], _addresses("sphinx", length), "sphinx-destination"
        ),
    ),
}


def connection_bps_for(profile: OverlayProfile) -> float:
    """Per-connection capacity associated with a testbed profile."""
    return LAN_CONNECTION_BPS if profile.name == "lan" else WAN_CONNECTION_BPS


@dataclass(frozen=True)
class ThroughputResult:
    """Measured throughput of one simulated transfer.

    Both backends run the simulator's event order, so every field, timing
    included, is identical between the ``sim`` and ``aio`` backends under a
    shared seed.  :meth:`parity_fields`, the structural part (delivered
    count and digest, relay and network counters), is what the figures'
    parity artifacts record.
    """

    protocol: str
    path_length: int
    d: int
    d_prime: int
    throughput_bps: float
    messages_delivered: int
    duration_seconds: float
    delivered_digest: str = ""
    relay_counters: dict = field(default_factory=dict)
    net_counters: dict = field(default_factory=dict)

    def parity_fields(self) -> dict:
        """The structural fields asserted identical across backends."""
        return {
            "delivered": self.messages_delivered,
            "digest": self.delivered_digest,
            "relay": dict(self.relay_counters),
            "net": dict(self.net_counters),
        }


def prepare_scheme_transfer(
    scheme: str,
    profile: OverlayProfile,
    path_length: int,
    d: int,
    d_prime: int,
    seed: int,
    data_plane: str,
    backend: str = "sim",
) -> tuple[OverlayTransport, ProtocolRuntime, list[str], str]:
    """Build the substrate, runtime, relay pool and destination for one scheme.

    Shared by the throughput and setup-latency drivers; the scheme's
    :data:`SCHEMES` entry supplies the address plan and the runtime class.
    ``backend`` selects the transport: ``"sim"`` (discrete-event) or
    ``"aio"`` (localhost TCP sockets).
    ``data_plane`` must be ``"batched"``, the one data plane there is; the
    positional slot stays because ``perfbench/workloads.py`` passes it.
    """
    if data_plane != "batched":
        raise ValueError(f"unknown data plane {data_plane!r}; the only one is 'batched'")
    entry = SCHEMES[scheme]
    rng = np.random.default_rng(seed)
    source_stage, relays, destination = entry.address_plan(path_length, d_prime)
    all_addresses = [*source_stage, *relays, destination]
    network = profile.build_network(all_addresses, rng)
    substrate = build_substrate(backend, network, connection_bps=connection_bps_for(profile))
    runtime = entry.runtime(substrate, source_stage, path_length, d, d_prime, rng)
    return substrate, runtime, relays, destination


def measure_throughput(
    scheme: str,
    profile: OverlayProfile,
    path_length: int,
    d: int = 1,
    num_messages: int = 300,
    message_bytes: int = 1500,
    seed: int = 42,
    backend: str = "sim",
) -> ThroughputResult:
    """Drive one transfer of any scheme and measure delivered goodput.

    The unified driver behind Figs. 11–13: :func:`transfer_throughput` on a
    fresh :func:`prepare_scheme_transfer` with ``d' = d``.
    """
    substrate, *transfer = prepare_scheme_transfer(
        scheme, profile, path_length, d, d, seed, "batched", backend
    )
    try:
        return transfer_throughput(*transfer, num_messages, message_bytes)
    finally:
        substrate.close()


def transfer_throughput(runtime: ProtocolRuntime, relays: list[str], destination: str,
                        num_messages: int = 300, message_bytes: int = 1500) -> ThroughputResult:
    """Establish the route, then ship ``num_messages`` fixed-size messages and measure
    bytes delivered per second of simulated time; the substrate is left open."""
    substrate = runtime.substrate
    progress = runtime.establish(relays, destination)
    substrate.sim.run()
    transfer_start = substrate.sim.now
    payload = bytes(message_bytes)
    runtime.send_messages([payload] * num_messages)
    substrate.sim.run()
    delivered = len(progress.delivered_messages)
    last = progress.last_delivery_at or transfer_start
    duration = max(last - transfer_start, 1e-9)
    throughput = progress.delivered_bytes * 8.0 / duration
    return ThroughputResult(
        protocol=SCHEMES[runtime.scheme].label,
        path_length=runtime.path_length,
        d=runtime.d,
        d_prime=runtime.d_prime,
        throughput_bps=throughput,
        messages_delivered=delivered,
        duration_seconds=duration,
        delivered_digest=runtime.delivered_digest(),
        relay_counters=runtime.relay_counters(),
        net_counters=runtime.network_counters(),
    )


def aggregate_throughput_vs_flows(
    profile: OverlayProfile,
    flow_counts: list[int],
    overlay_size: int = 100,
    path_length: int = 5,
    d: int = 3,
    num_messages: int = 60,
    message_bytes: int = 1500,
    seed: int = 9,
    backend: str = "sim",
) -> list[dict]:
    """Fig. 13: aggregate network throughput as concurrent flows increase.

    All flows share one overlay of ``overlay_size`` nodes, so their packets
    contend for the same per-node CPU and per-connection capacity; the curve
    rises roughly linearly and then saturates, as in the paper.  Every flow
    is an information-slicing flow through the real relay engines.
    """
    rows = []
    for flow_count in flow_counts:
        rng = np.random.default_rng(seed + flow_count)
        overlay_nodes = _addresses("pl", overlay_size)
        d_prime = d
        source_stages = [
            _addresses(f"flow{flow}-src", d_prime) for flow in range(flow_count)
        ]
        destinations = [f"flow{flow}-dst" for flow in range(flow_count)]
        all_addresses = (
            overlay_nodes
            + [addr for stage in source_stages for addr in stage]
            + destinations
        )
        network = profile.build_network(all_addresses, rng)
        substrate = build_substrate(
            backend, network, connection_bps=connection_bps_for(profile)
        )
        try:
            runtime = SlicingRuntime(substrate, rng=np.random.default_rng(seed + 1))
            total_bytes = 0
            flows = []
            progresses = []
            start = substrate.sim.now
            payload = bytes(message_bytes)
            for flow_index in range(flow_count):
                source = Source(
                    source_stages[flow_index][0],
                    source_stages[flow_index][1:],
                    d=d,
                    d_prime=d_prime,
                    path_length=path_length,
                    rng=np.random.default_rng(seed + 31 * flow_index),
                )
                flow = source.establish_flow(overlay_nodes, destinations[flow_index])
                progress = runtime.start_flow(source, flow)
                flows.append(flow)
                progresses.append(progress)
                runtime.send_messages(source, flow, [payload] * num_messages)
            substrate.sim.run()
            end = max(
                [p.last_delivery_at for p in progresses if p.last_delivery_at] or [start]
            )
            total_bytes = sum(p.delivered_bytes for p in progresses)
            duration = max(end - start, 1e-9)
            delivered_per_flow = []
            for flow, destination in zip(flows, destinations):
                relay = runtime.relays.get(destination)
                flow_id = flow.plan.flow_ids[destination]
                delivered_per_flow.append(
                    len(relay.delivered_messages(flow_id)) if relay else 0
                )
            rows.append(
                {
                    "flows": flow_count,
                    "network_throughput_mbps": total_bytes * 8.0 / duration / 1e6,
                    "messages_delivered": sum(
                        len(p.delivered_messages) for p in progresses
                    ),
                    "parity": {
                        "flows": flow_count,
                        "delivered_per_flow": delivered_per_flow,
                        "relay": aggregate_relay_stats(runtime.relays.values()),
                        "net": {
                            "packets_sent": substrate.stats.packets_sent,
                            "packets_dropped": substrate.stats.packets_dropped,
                            "bytes_sent": substrate.stats.bytes_sent,
                        },
                    },
                }
            )
        finally:
            substrate.close()
    return rows
