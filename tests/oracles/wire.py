"""The wire substrate: the simulator with every burst round-tripped through the codec.

:class:`WireOverlayNetwork` is the discrete-event substrate whose ``_send``
hook turns a burst into its wire bytes — :func:`~repro.core.packet.pack_packets`
for packets, :func:`~repro.overlay.aio.encode_frame` per cell — and whose
``_receive`` hook parses them back at the landing, as the socket backend
does, with no socket in between.  Every figure batch then crosses the codec
in the time of a simulator run.  A test puts it under a figure by
monkeypatching ``repro.experiments.throughput.build_substrate``.
"""

from __future__ import annotations

from repro.core.packet import pack_packets, unpack_packets
from repro.overlay.aio import decode_frames, encode_frame
from repro.overlay.node import SimulatedOverlayNetwork


class WireOverlayNetwork(SimulatedOverlayNetwork):
    """The simulated substrate, carrying each burst as its wire bytes."""

    def _send(self, sender, receiver, items, sizes, packets):
        if packets:
            return packets, pack_packets(items), sender, receiver
        return packets, b"".join(map(encode_frame, items)), sender, receiver

    def _receive(self, carried):
        packets, data, sender, receiver = carried
        return unpack_packets(data, sender, receiver) if packets else decode_frames(data)
