"""A small discrete-event simulator.

The performance experiments (§7) need controlled time: wide-area latencies,
per-node CPU costs, node failures at precise instants, and reproducibility.
Rather than racing wall-clock asyncio tasks, we schedule everything on a
simulated clock.  The simulator is deliberately tiny — an event heap with
deterministic tie-breaking — because all domain behaviour lives in the node
runtimes built on top of it (:mod:`repro.overlay.node`).

A heap entry is a ``[time, sequence, callback]`` list.  Sequences are
unique, so ``heapq`` orders entries by ``(time, sequence)`` in C without
ever comparing callbacks; cancelling an event sets its callback to ``None``.
:meth:`EventSimulator.run` and the asyncio backend's drain loop reach the
heap's head only through :meth:`EventSimulator.peek` and
:meth:`EventSimulator.pop_due`.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable

from ..core.errors import SimulationError


class EventHandle:
    """Handle returned by :meth:`EventSimulator.schedule`; allows cancellation."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        self._entry[2] = None

    @property
    def time(self) -> float:
        return self._entry[0]


class _KeyedBatch:
    """Items accumulated for one (key, instant) pair; drained by one event."""

    __slots__ = ("time", "items")

    def __init__(self, time: float, items: list) -> None:
        self.time = time
        self.items = items


class EventSimulator:
    """Deterministic discrete-event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[list] = []
        self._sequence = itertools.count()
        self._batches: dict[object, _KeyedBatch] = {}
        self.events_processed = 0
        self.batched_events = 0

    def _push(self, time: float, callback: Callable[[], None]) -> list:
        entry = [time, next(self._sequence), callback]
        heappush(self._queue, entry)
        return entry

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` ``delay`` simulated seconds from now."""
        if not 0.0 <= delay < math.inf:
            raise SimulationError(
                f"cannot schedule an event with delay {delay!r}: "
                "delays must be finite and non-negative"
            )
        return EventHandle(self._push(self.now + delay, callback))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time`` (now, if already past)."""
        if not 0.0 <= time < math.inf:
            raise SimulationError(
                f"cannot schedule an event at time {time!r}: "
                "times must be finite and non-negative"
            )
        return EventHandle(self._push(self.now + max(time - self.now, 0.0), callback))

    def schedule_keyed(
        self,
        key: object,
        time: float,
        item: Any,
        drain: Callable[[list], None],
    ) -> None:
        """Coalesce ``item`` with others landing on ``key`` at the same instant.

        The first item for a ``(key, time)`` pair schedules one event at
        absolute time ``time``; items added for the same pair before it fires
        join its batch instead of scheduling further events.  When the event
        fires, ``drain`` receives every accumulated item in arrival order —
        this is what lets the overlay runtime process all packets landing at
        one relay at one simulated instant as a single batch.  Tie-breaking
        stays deterministic: batch events obey the same (time, sequence)
        order as everything else, and items within a batch keep the order in
        which they were enqueued.
        """
        batch = self._batches.get(key)
        if batch is not None and batch.time == time:
            batch.items.append(item)
            self.batched_events += 1
            return
        batch = _KeyedBatch(time, [item])
        self._batches[key] = batch

        def fire() -> None:
            if self._batches.get(key) is batch:
                del self._batches[key]
            drain(batch.items)

        self.schedule_at(time, fire)

    def peek(self, until: float | None) -> Callable[[], None] | None:
        """The callback of the earliest live event due by ``until``, left queued.

        Returns ``None`` when the heap is drained or its earliest event lies
        past ``until``; cancelled entries reached on the way are discarded.
        """
        queue = self._queue
        while queue:
            time, _sequence, callback = queue[0]
            if until is not None and time > until:
                return None
            if callback is not None:
                return callback
            heappop(queue)
        return None

    def pop_due(
        self, until: float | None, budget: int
    ) -> tuple[float, Callable[[], None]] | None:
        """Pop the earliest live event due by ``until``: ``(time, callback)``.

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

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events still waiting."""
        return sum(1 for entry in self._queue if entry[2] is not None)
