"""Discrete-event simulation primitives for the cloud service layer.

A minimal, deterministic event kernel: timestamped events in a binary
heap, popped in ``(time, kind, insertion order)`` order.  The kind
ordering is load-bearing — at one instant, ARRIVAL < COMPLETION <
OUTAGE < RECOVERY < BREAKER < DISPATCH, so a program arriving exactly
when a device frees up is queued before the dispatch decision runs, a
freed device is marked idle before dispatch looks for capacity, a
batch completing exactly when its device fails still counts as
completed, and an outage, recovery, or circuit-breaker transition is
applied before any same-instant dispatch decision can place work on
(or skip) the affected device.  That
tie-break is what makes the event-driven scheduler reproduce the
legacy synchronous while-loop exactly on single-device traces — and
what makes fault-plan replays bit-identical.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Iterator, List, Optional

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(IntEnum):
    """Event types, in same-instant processing order."""

    ARRIVAL = 0      #: a program joins the pending queue
    COMPLETION = 1   #: a device finishes its batch and frees up
    OUTAGE = 2       #: a device goes offline (fault injection)
    RECOVERY = 3     #: an offline device rejoins the fleet
    BREAKER = 4      #: a circuit-breaker cooldown elapses (half-open)
    DISPATCH = 5     #: an opportunity to pack + launch a batch


@dataclass(frozen=True, order=True)
class Event:
    """One timestamped simulation event."""

    time_ns: float
    kind: EventKind
    seq: int = field(compare=True)
    payload: Any = field(default=None, compare=False)


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()

    def push(self, time_ns: float, kind: EventKind,
             payload: Any = None) -> Event:
        """Schedule an event; same-time ties resolve by kind, then FIFO."""
        if time_ns < 0:
            raise ValueError("event time must be non-negative")
        event = Event(time_ns, kind, next(self._seq), payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)

    def peek(self) -> Optional[Event]:
        """The earliest event without removing it, or ``None``."""
        return self._heap[0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain(self) -> Iterator[Event]:
        """Pop events until the queue is empty."""
        while self._heap:
            yield heapq.heappop(self._heap)
