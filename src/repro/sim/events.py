"""Discrete-event core: a deterministic priority event queue.

Small, dependency-free, and deterministic: events at equal timestamps pop
in insertion order (a monotonically increasing sequence number breaks
ties), so simulations are exactly reproducible given a seed.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import math
from typing import Any

__all__ = ["EventType", "Event", "EventQueue"]


class EventType(enum.Enum):
    """Event kinds used by the pool and system simulators."""

    DISK_FAILURE = "disk-failure"
    FAILURE_DETECTED = "failure-detected"
    REPAIR_COMPLETE = "repair-complete"
    TRANSIENT_OFFLINE = "transient-offline"
    TRANSIENT_ONLINE = "transient-online"
    SECTOR_ERROR = "sector-error"
    BANDWIDTH_CHANGE = "bandwidth-change"
    SCRUB = "scrub"
    END_OF_MISSION = "end-of-mission"

    # Members are singletons, so identity hashing agrees with equality; it
    # runs in C, where Enum's own hash calls Python on every dispatch.
    __hash__ = object.__hash__


@dataclasses.dataclass(frozen=True)
class Event:
    """One scheduled event.  ``seq`` orders events of equal ``time`` in the
    queue (insertion order); ``payload`` is free-form and never compared."""

    time: float
    seq: int
    kind: EventType = dataclasses.field(compare=False)
    payload: Any = dataclasses.field(compare=False, default=None)


class EventQueue:
    """A heap-backed event queue with cancellation.

    The heap holds ``(time, seq, event)`` tuples, so every comparison is a
    C-level float/int compare: ``seq`` is unique and the event itself is
    never compared.  Cancellation is lazy: :meth:`cancel` drops the handle
    from the live set and :meth:`pop`/:meth:`peek_time` discard corpses
    when they reach the top -- O(log n) per operation either way.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live: set[int] = set()
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._live)

    def push(self, time: float, kind: EventType, payload: Any = None) -> int:
        """Schedule an event; returns a handle usable with :meth:`cancel`.

        Rejects corrupt timestamps outright: NaN (undefined ordering),
        negative times, and infinite times for anything other than an
        :attr:`EventType.END_OF_MISSION` sentinel.
        """
        if math.isnan(time):
            raise ValueError(f"event time must not be NaN ({kind})")
        if time < 0:
            raise ValueError(f"event time must be non-negative: {time}")
        if math.isinf(time) and kind is not EventType.END_OF_MISSION:
            raise ValueError(
                f"only END_OF_MISSION may be scheduled at infinity, not {kind}"
            )
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: {time} < now={self.now}"
            )
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, seq, Event(time, seq, kind, payload)))
        self._live.add(seq)
        return seq

    def cancel(self, handle: int) -> None:
        """Cancel a previously scheduled event (no-op if already popped)."""
        self._live.discard(handle)

    def pop(self) -> Event | None:
        """Pop the earliest live event, advancing the clock; None if empty."""
        heap = self._heap
        live = self._live
        while heap:
            time, seq, event = heapq.heappop(heap)
            if seq in live:
                live.remove(seq)
                self.now = time
                return event
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][1] not in self._live:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
