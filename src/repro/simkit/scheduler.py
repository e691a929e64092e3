"""The event scheduler: a binary heap ordered by ``(time, sequence)``.

The insertion-order ``sequence`` tiebreak makes every run deterministic.
The busiest committed workload (contended CSMA sessions) peaks at a few
hundred live events, where C-implemented ``heapq`` is the fastest queue
available in pure Python.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.simkit.event import Event


class EventScheduler:
    """Priority queue of :class:`Event` ordered by ``(time, sequence)``.

    O(log n) per operation; cancellation is lazy (a cancelled event is
    skipped when it reaches the top of the heap).
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._sequence = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def schedule(self, time: float, action: Callable[[], Any], label: str = "") -> Event:
        """Insert an event firing at ``time``; returns it for cancellation."""
        if time < 0.0:
            raise ValueError(f"cannot schedule an event at negative time {time!r}")
        event = Event(time=time, sequence=self._sequence, action=action, label=label)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event``; it will be skipped when popped."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def pop_next(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Firing time of the earliest live event, or ``None`` if empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def clear(self) -> None:
        """Drop every pending event and restart the sequence counter.

        A cleared scheduler is indistinguishable from a fresh one: the same
        schedule calls issue the same sequence numbers, so a reused
        simulator replays a workload with identical tie-breaking.
        """
        self._heap.clear()
        self._sequence = 0
        self._live = 0
