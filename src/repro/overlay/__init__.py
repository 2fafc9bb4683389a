"""Overlay substrates: the discrete-event simulator and the asyncio socket
backend (the relay engines run on either through the protocol runtimes),
churn models, latency/load profiles, and AS-aware relay selection."""

from .address import ASDatabase, Prefix, assign_overlay_addresses, generate_as_database
from .churn import PLANETLAB_CHURN, STABLE_CHURN, ChurnModel
from .network import (
    NetworkModel,
    NodeResources,
    heterogeneous_network,
    uniform_network,
)
from .node import (
    DEFAULT_PER_PACKET_OVERHEAD,
    FlowProgress,
    OverlayTransport,
    SimulatedOverlayNetwork,
    SlicingRuntime,
)
from .profiles import LAN_PROFILE, PLANETLAB_PROFILE, PROFILES, OverlayProfile, get_profile
from .runtime import (
    SUBSTRATE_BACKENDS,
    ProtocolRuntime,
    SlicingProtocolRuntime,
    build_substrate,
)
from .selection import (
    SelectionReport,
    adversary_capture_probability,
    as_diverse_selection,
    uniform_selection,
)
from .simulator import EventHandle, EventSimulator

__all__ = [
    "EventSimulator",
    "EventHandle",
    "NetworkModel",
    "NodeResources",
    "uniform_network",
    "heterogeneous_network",
    "OverlayTransport",
    "SimulatedOverlayNetwork",
    "SlicingRuntime",
    "FlowProgress",
    "ProtocolRuntime",
    "SlicingProtocolRuntime",
    "build_substrate",
    "SUBSTRATE_BACKENDS",
    "DEFAULT_PER_PACKET_OVERHEAD",
    "ChurnModel",
    "PLANETLAB_CHURN",
    "STABLE_CHURN",
    "OverlayProfile",
    "LAN_PROFILE",
    "PLANETLAB_PROFILE",
    "PROFILES",
    "get_profile",
    "ASDatabase",
    "Prefix",
    "generate_as_database",
    "assign_overlay_addresses",
    "uniform_selection",
    "as_diverse_selection",
    "SelectionReport",
    "adversary_capture_probability",
]
