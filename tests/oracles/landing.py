"""The two-event landing: a keyed item lands by a plain event of its own.

Before a chunk joined its receiver's inbox when it was sent, each chunk
landed by a plain heap event at its last packet's arrival instant, and that
event handed it to ``schedule_keyed(key, now, …)``, whose batch was one more
plain event, scheduled when the first landing of its ``(key, instant)``
fired.  :class:`TwoEventSimulator` keeps that order as the reference for
:meth:`~repro.overlay.simulator.EventSimulator.schedule_keyed`'s landing
contract: :meth:`TwoEventSimulator.land` is a plain event at the item's
instant, and :meth:`TwoEventSimulator.schedule_keyed` is the coalescing
those landings called (one slot per key, its batch a plain event).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.overlay.simulator import EventSimulator


class TwoEventSimulator(EventSimulator):
    """The event simulator with keyed items landing through a plain event each."""

    def land(self, key: object, time: float, item: Any, drain: Callable[[list], None]) -> None:
        """Land ``item`` at ``time`` by a plain event, then coalesce it at that instant."""
        self.schedule_at(time, lambda: self.schedule_keyed(key, self.now, item, drain))

    def schedule_keyed(
        self, key: object, time: float, item: Any, drain: Callable[[list], None]
    ) -> None:
        slot = self._batches.get(key)
        if slot is not None and slot[0] == time:
            slot[1].append(item)
            self.batched_events += 1
            return
        slot = self._batches[key] = (time, [item])

        def fire() -> None:
            if self._batches.get(key) is slot:
                del self._batches[key]
            drain(slot[1])

        self.schedule_at(time, fire)
