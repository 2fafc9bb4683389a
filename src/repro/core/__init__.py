"""Core information-slicing protocol: coding, graphs, source, relay."""

from .coder import CodedBlock, SliceCoder
from .errors import (
    CodingError,
    FieldError,
    GraphConstructionError,
    InsufficientSlicesError,
    MatrixError,
    PacketFormatError,
    ProtocolError,
    ReproError,
)
from .gf import GF, GF256
from .graph import ForwardingGraph, build_forwarding_graph
from .integrity import robust_decode, unwrap, verify, wrap
from .matrix import cauchy_matrix, mds_matrix, random_invertible_matrix
from .node_info import DataMap, NodeInfo, SliceMap, SliceMapEntry
from .packet import Packet, PacketKind, random_padding_slices
from .relay import FlowState, Relay, RelayStats
from .slice_map import FlowPlan, compile_flow_plan
from .source import FlowSetup, Source, data_nonce
from .transforms import AffineTransform, build_transform_chain

__all__ = [
    "GF",
    "GF256",
    "CodedBlock",
    "SliceCoder",
    "ForwardingGraph",
    "build_forwarding_graph",
    "FlowPlan",
    "compile_flow_plan",
    "NodeInfo",
    "SliceMap",
    "SliceMapEntry",
    "DataMap",
    "Packet",
    "PacketKind",
    "random_padding_slices",
    "Relay",
    "RelayStats",
    "FlowState",
    "Source",
    "FlowSetup",
    "data_nonce",
    "AffineTransform",
    "build_transform_chain",
    "wrap",
    "unwrap",
    "verify",
    "robust_decode",
    "random_invertible_matrix",
    "mds_matrix",
    "cauchy_matrix",
    "ReproError",
    "FieldError",
    "MatrixError",
    "CodingError",
    "InsufficientSlicesError",
    "GraphConstructionError",
    "ProtocolError",
    "PacketFormatError",
]
