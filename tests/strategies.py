"""Shared hypothesis strategies for the test suite.

The wire-format and data-plane suites each grew their own inline
strategies for the same shapes — coded blocks, packets, ``(d, d', L)``
triples.  This module is the single home for those
generators, so new suites (the sphinx property harness) reuse them instead of
redefining them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.coder import CodedBlock
from repro.core.packet import Packet, PacketBatch, PacketKind

# -- coding-layer shapes ------------------------------------------------------------


@st.composite
def coded_blocks(draw, d: int, payload_bytes: int):
    """One coded slice with ``d`` coefficients and a fixed payload width."""
    coefficients = draw(st.lists(st.integers(0, 255), min_size=d, max_size=d))
    payload = draw(
        st.lists(st.integers(0, 255), min_size=payload_bytes, max_size=payload_bytes)
    )
    index = draw(st.integers(-1, 64))
    return CodedBlock(
        coefficients=np.array(coefficients, dtype=np.uint8),
        payload=np.array(payload, dtype=np.uint8),
        index=index,
    )


@st.composite
def packets(draw, d=None, payload_bytes=None, slice_count=None, kind=None):
    """Packets across all slot layouts: any d, slice count and slice size.

    A shape argument that is given is fixed instead of drawn.
    """
    d = draw(st.integers(1, 8)) if d is None else d
    if payload_bytes is None:
        payload_bytes = draw(st.integers(1, 48))
    if slice_count is None:
        slice_count = draw(st.integers(1, 6))
    slices = [draw(coded_blocks(d, payload_bytes)) for _ in range(slice_count)]
    return Packet(
        flow_id=draw(st.integers(0, 2**64 - 1)),
        kind=draw(st.sampled_from(list(PacketKind))) if kind is None else kind,
        slices=slices,
        d=d,
        lane=draw(st.integers(0, 255)),
        seq=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def packet_runs(draw, max_size: int = 6):
    """A flow's batch: 0..max_size packets of one kind, slice count and size."""
    shape = {
        "d": draw(st.integers(1, 8)),
        "payload_bytes": draw(st.integers(1, 48)),
        "slice_count": draw(st.integers(1, 6)),
        "kind": draw(st.sampled_from(list(PacketKind))),
    }
    return draw(st.lists(packets(**shape), max_size=max_size))


@st.composite
def packet_batches(draw, flow_ids=None, lanes=None, d=None, payload_bytes=None, max_rows=5):
    """A data batch: 1..max_rows one-slice packets of one flow, lane and size.

    A field that is given as a list is drawn from it; a shape that is given
    is fixed.
    """
    d = draw(st.integers(1, 8)) if d is None else d
    if payload_bytes is None:
        payload_bytes = draw(st.integers(1, 48))
    rows = draw(st.integers(1, max_rows))
    matrix = st.lists(st.integers(0, 255), min_size=rows * (d + payload_bytes),
                      max_size=rows * (d + payload_bytes))
    columns = np.array(draw(matrix), dtype=np.uint8).reshape(rows, d + payload_bytes)
    return PacketBatch(
        flow_id=draw(st.integers(0, 2**64 - 1) if flow_ids is None else st.sampled_from(flow_ids)),
        d=d,
        lane=draw(st.integers(0, 255) if lanes is None else st.sampled_from(lanes)),
        seqs=draw(st.lists(st.integers(0, 2**32 - 1), min_size=rows, max_size=rows)),
        coefficients=columns[:, :d],
        payloads=columns[:, d:],
    )


@st.composite
def dimension_triples(draw, max_d: int = 3, max_extra: int = 2, max_path: int = 4):
    """``(d, d', path_length)`` triples in the ranges figs 11–15 exercise."""
    d = draw(st.integers(2, max_d))
    d_prime = d + draw(st.integers(0, max_extra))
    path_length = draw(st.integers(2, max_path))
    return d, d_prime, path_length


# -- payloads and routes ------------------------------------------------------------


def payload_blobs(min_size: int = 0, max_size: int = 160):
    """Arbitrary binary message payloads."""
    return st.binary(min_size=min_size, max_size=max_size)


@st.composite
def distinct_key_pairs(draw, min_size: int = 1, max_size: int = 32):
    """Two unequal symmetric keys (the wrong-key negative paths)."""
    key = draw(st.binary(min_size=min_size, max_size=max_size))
    other = draw(
        st.binary(min_size=min_size, max_size=max_size).filter(lambda k: k != key)
    )
    return key, other


@st.composite
def routes(draw, max_hops: int = 8, prefix: str = "relay"):
    """A relay pool, a distinct destination and a feasible path length."""
    path_length = draw(st.integers(1, max_hops))
    pool_size = draw(st.integers(path_length, max_hops + 4))
    relays = [f"{prefix}-{index}" for index in range(pool_size)]
    return relays, "destination", path_length
