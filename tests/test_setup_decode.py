"""Bit-identity of the batched setup-phase decode against the scalar path.

The batched relay engine decodes its routing slices (§4.3.5) through
:func:`repro.core.flow_decoder.decode_setup_payload` — first ``d`` blocks
stacked into the batched Gauss–Jordan kernel, scalar
:func:`~repro.core.integrity.robust_decode` fallback — and the claim is
*bit-identity*: for any block multiset the two return the same bytes (or
raise the same error class).  Checked here block-by-block with hypothesis
and end-to-end through a full route setup against the per-packet reference
plane (``tests/oracles/dataplane.py``).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import flow_decoder
from repro.core.coder import SliceCoder
from repro.core.errors import InsufficientSlicesError
from repro.core.flow_decoder import decode_setup_payload
from repro.core.integrity import robust_decode, wrap
from repro.core.packet import PacketKind, random_padding_slices
from repro.core.relay import Relay
from repro.experiments.setup_latency import measure_setup
from repro.experiments.throughput import prepare_scheme_transfer
from repro.overlay import runtime as overlay_runtime
from repro.overlay.profiles import LAN_PROFILE

from oracles.dataplane import ScalarSlicingRuntime


def _decode_both(coder, blocks):
    try:
        scalar = robust_decode(coder, blocks)
    except InsufficientSlicesError:
        with pytest.raises(InsufficientSlicesError):
            decode_setup_payload(coder, blocks)
        return None
    batched = decode_setup_payload(coder, blocks)
    assert batched == scalar
    return scalar


@given(
    d=st.integers(1, 5),
    extra=st.integers(0, 3),
    payload_len=st.integers(1, 40),
    drop=st.integers(0, 2),
    garbage=st.integers(0, 2),
    duplicate_first=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_batched_setup_decode_matches_robust_decode(
    d, extra, payload_len, drop, garbage, duplicate_first, seed, data
):
    rng = np.random.default_rng(seed)
    coder = SliceCoder(d, d_prime=d + extra)
    message = wrap(bytes(rng.integers(0, 256, size=payload_len, dtype=np.uint8)))
    blocks = coder.encode(message, rng)
    # Drop some blocks (churn), keep arrival order shuffled.
    order = data.draw(st.permutations(range(len(blocks))), label="order")
    blocks = [blocks[i] for i in order][: len(blocks) - drop]
    # Random padding slices a relay may receive when a parent failed; their
    # coefficients are arbitrary, so a fast-path decode over them must be
    # caught by the integrity frame and fall back.
    payload_bytes = int(blocks[0].payload.shape[0]) if blocks else payload_len
    for _ in range(garbage):
        position = data.draw(
            st.integers(0, len(blocks)), label="garbage_position"
        )
        blocks.insert(position, *random_padding_slices(1, d, payload_bytes, rng))
    if duplicate_first and blocks:
        # A repeated coefficient row makes the first-d stack singular.
        blocks.insert(1, blocks[0])
    _decode_both(coder, blocks)


def test_fast_path_and_fallback_agree_on_ragged_lengths():
    rng = np.random.default_rng(7)
    coder = SliceCoder(2)
    blocks = coder.encode(wrap(b"routing info"), rng)
    (short,) = random_padding_slices(1, 2, 3, rng)  # mismatched payload length
    assert decode_setup_payload(coder, [short, *blocks]) == robust_decode(
        coder, [short, *blocks]
    )


def test_insufficient_blocks_raise_in_both_paths():
    rng = np.random.default_rng(11)
    coder = SliceCoder(3)
    blocks = coder.encode(wrap(b"x"), rng)[:2]
    with pytest.raises(InsufficientSlicesError):
        robust_decode(coder, blocks)
    with pytest.raises(InsufficientSlicesError):
        decode_setup_payload(coder, blocks)


@pytest.mark.parametrize("path_length,d", [(2, 2), (3, 3)])
def test_route_setup_engines_bit_identical_end_to_end(path_length, d, monkeypatch):
    # One slicing route setup per data plane under a shared seed: setup
    # completion, relays decoded, relay and network counters must all match.
    batched = measure_setup("slicing", LAN_PROFILE, path_length, d=d, seed=23)
    monkeypatch.setattr(overlay_runtime, "SlicingRuntime", ScalarSlicingRuntime)
    scalar = measure_setup("slicing", LAN_PROFILE, path_length, d=d, seed=23)
    assert scalar.parity_fields() == batched.parity_fields()
    assert batched.setup_complete and batched.setup_seconds > 0


@pytest.fixture
def fallbacks(monkeypatch):
    """The block counts of every ``robust_decode`` a relay's decode falls back to."""
    calls = []

    def counted(coder, blocks):
        calls.append(len(blocks))
        return robust_decode(coder, blocks)

    monkeypatch.setattr(flow_decoder, "robust_decode", counted)
    return calls


@pytest.mark.parametrize("path_length,d", [(2, 2), (3, 3)])
def test_an_undamaged_route_setup_never_leaves_the_fast_path(path_length, d, fallbacks):
    """Every relay decodes its routing slices in the one elimination: a fast
    path that returned wrong pieces would still set up the route, through
    ``robust_decode``, and only this count would show it."""
    result = measure_setup("slicing", LAN_PROFILE, path_length, d=d, seed=23)
    assert result.setup_complete and result.relays_decoded > 0
    assert fallbacks == []


def test_a_garbage_routing_slice_leaves_the_fast_path(monkeypatch, fallbacks):
    """The first setup packet a relay receives carries garbage as the
    relay's own slice: its decode falls back to ``robust_decode``, which
    finds a verifying pair once a third parent's slice arrives (d = 2, d' = 3)."""
    substrate, runtime, relays, destination = prepare_scheme_transfer(
        "slicing", LAN_PROFILE, 3, 2, 3, 23, "batched"
    )
    handle, garbled = Relay.handle_packets, []

    def garbling(relay, packets, now=0.0):
        for index, packet in enumerate(packets):
            if not garbled and packet.kind == PacketKind.SETUP:
                own = packet.own_slice
                (garbage,) = random_padding_slices(1, own.d, own.payload.size,
                                                   np.random.default_rng(5))
                packets = [*packets]
                packets[index] = dataclasses.replace(packet, slices=[garbage, *packet.slices[1:]])
                garbled.append(relay.address)
        return handle(relay, packets, now)

    monkeypatch.setattr(Relay, "handle_packets", garbling)
    try:
        runtime.establish(relays, destination)
        substrate.sim.run()
        assert runtime.setup_seconds() is not None
    finally:
        substrate.close()
    assert garbled and fallbacks and min(fallbacks) >= 2
