"""A small discrete-event simulator.

The performance experiments (§7) need controlled time: wide-area latencies,
per-node CPU costs, node failures at precise instants, and reproducibility.
Rather than racing wall-clock tasks, we schedule everything on a
simulated clock.  The simulator is deliberately tiny — an event heap with
deterministic tie-breaking — because all domain behaviour lives in the node
runtimes built on top of it (:mod:`repro.overlay.node`).

A heap entry is a ``[time, sequence, callback]`` list.  Sequences are
unique, so ``heapq`` orders entries by ``(time, sequence)`` in C without
ever comparing callbacks.  :meth:`EventSimulator.run` is the one loop that
pops the heap, on either overlay backend: the socket backend waits on its
sockets inside a landing (:mod:`repro.overlay.aio`), not in a loop of its
own.

The landing contract
--------------------
:meth:`EventSimulator.schedule_keyed` takes an item when it is *sent*, not
when it lands: the items of one ``(key, instant)`` pair share one heap
event, a :class:`_KeyedBatch`, whose sequence is offset by :data:`_LATE` so
that it runs after every plain event due at that instant, and the batches
of one instant run in the order of their first items.  That is the order a
plain landing event per item, each calling ``schedule_keyed(key, now, …)``,
produced (``tests/oracles/landing.py`` keeps it as the reference): such a
landing's drain ran after every plain event that was queued for its instant
when the first landing fired.  The two differ only for a plain event
scheduled with zero delay during an instant that already has a pending
batch: it used to run after that batch and now runs before it.  No
caller in ``src/`` schedules one; every delay there is positive.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable

from ..core.errors import SimulationError


#: Added to a keyed batch's sequence: it sorts after every plain event due at
#: its instant, whenever that event was scheduled.
_LATE = 1 << 62


class _KeyedBatch:
    """The items of one ``(key, instant)`` pair; calling it is their one heap event."""

    __slots__ = ("slots", "slot", "drain", "items")

    def __init__(self, slots: dict, slot: tuple, drain: Callable[[list], None], item: Any) -> None:
        self.slots = slots
        self.slot = slot
        self.drain = drain
        self.items = [item]

    def __call__(self) -> None:
        del self.slots[self.slot]
        self.drain(self.items)


class EventSimulator:
    """Deterministic discrete-event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[list] = []
        self._sequence = itertools.count()
        self._batches: dict[tuple[object, float], _KeyedBatch] = {}
        self.events_processed = 0
        self.batched_events = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` simulated seconds from now."""
        if not 0.0 <= delay < math.inf:
            raise SimulationError(
                f"cannot schedule an event with delay {delay!r}: "
                "delays must be finite and non-negative"
            )
        heappush(self._queue, [self.now + delay, next(self._sequence), callback])

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated time ``time`` (now, if already past)."""
        heappush(self._queue, [self._instant(time), next(self._sequence), callback])

    def _instant(self, time: float) -> float:
        """The instant an event for absolute time ``time`` runs at: ``now + max(time - now, 0)``."""
        if not 0.0 <= time < math.inf:
            raise SimulationError(
                f"cannot schedule an event at time {time!r}: "
                "times must be finite and non-negative"
            )
        now = self.now
        return now + (time - now if time > now else 0.0)

    def schedule_keyed(
        self,
        key: object,
        time: float,
        item: Any,
        drain: Callable[[list], None],
    ) -> None:
        """Coalesce ``item`` with others for ``key`` landing at the same instant.

        The instant is the one :meth:`schedule_at` would give ``time``.  The
        first item for a ``(key, instant)`` pair schedules one event there;
        items added for the same pair before it fires join its batch.  When
        the event fires, ``drain`` receives every accumulated item in the
        order it was added — this is what lets the overlay transports hand
        all packets landing at one relay at one simulated instant over as a
        single batch.  The event runs after
        every plain event due at its instant, and the batches of one
        instant run in the order of their first items (the module
        docstring's "The landing contract").
        """
        instant = self._instant(time)
        slot = (key, instant)
        batch = self._batches.get(slot)
        if batch is not None:
            batch.items.append(item)
            self.batched_events += 1
            return
        batch = self._batches[slot] = _KeyedBatch(self._batches, slot, drain, item)
        heappush(self._queue, [instant, _LATE + next(self._sequence), batch])

    def peek(self, until: float | None) -> Callable[[], None] | None:
        """The callback of the earliest event due by ``until``, left queued.

        Returns ``None`` when the heap is drained or its earliest event lies
        past ``until``.
        """
        queue = self._queue
        if not queue or until is not None and queue[0][0] > until:
            return None
        return queue[0][2]

    def pop_due(
        self, until: float | None, budget: int
    ) -> tuple[float, Callable[[], None]] | None:
        """Pop the earliest event due by ``until``: ``(time, callback)``.

        Returns ``None`` where :meth:`peek` does.  ``budget`` is how many
        more events the caller may run: when it is used up, a due event
        raises :class:`SimulationError` and stays queued, so a later run
        still executes it.
        """
        if self.peek(until) is None:
            return None
        if budget <= 0:
            raise SimulationError("event budget exceeded; possible livelock")
        time, _sequence, callback = heappop(self._queue)
        return time, callback

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulated time at which processing stopped.  Running more
        than ``max_events`` events in one call raises :class:`SimulationError`
        before the next one is popped, so it is still queued for a later run.
        """
        pop_due = self.pop_due
        processed = 0
        while (event := pop_due(until, max_events - processed)) is not None:
            processed += 1
            self.now, callback = event
            self.events_processed += 1
            callback()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

