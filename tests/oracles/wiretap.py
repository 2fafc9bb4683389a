"""A passive wiretap on the simulated overlay: what an observer of the links sees.

:class:`RecordingOverlayNetwork` is the discrete-event substrate with every
transmission's ``(sender, receiver, size_bytes)`` appended to ``records``.
Every transmission of either backend is charged to the virtual clock by
:meth:`~repro.overlay.node.OverlayTransport._account_batch` — the packet
inbox path and the blob path alike — so overriding that one method
observes everything.  A test puts it under a scheme's transfer by
monkeypatching ``repro.experiments.throughput.build_substrate``.
"""

from __future__ import annotations

from repro.overlay.node import SimulatedOverlayNetwork


class RecordingOverlayNetwork(SimulatedOverlayNetwork):
    """The simulated substrate with a passive wiretap on every transmission.

    ``records`` collects (sender, receiver, size_bytes) in transmission
    order; the tap changes no timing, accounting or delivery behaviour.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records: list[tuple[str, str, int]] = []

    def _account_batch(self, sender, receiver, sizes, cpus):
        self.records.extend((sender, receiver, int(size)) for size in sizes)
        return super()._account_batch(sender, receiver, sizes, cpus)
