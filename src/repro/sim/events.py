"""Time-ordered event queue for the simulation kernel.

Events are net-value transitions scheduled at absolute times.  The queue
supports *inertial cancellation*: when a gate re-evaluates before its
previously scheduled output transition has fired (a glitch shorter than
the gate delay), the stale event is invalidated in place rather than
removed from the heap — the standard lazy-deletion trick that keeps
scheduling O(log n).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.cells.base import LogicValue
from repro.errors import SimulationError


@dataclass
class Event:
    """A scheduled net transition.

    Attributes:
        time: Absolute simulation time, seconds.
        seq: Tie-breaker preserving scheduling order at equal times.
        net: Name of the net that transitions.
        value: The new logic value.
        cause: Optional debug string (instance/pin that produced it).
        cancelled: Lazy-deletion flag; cancelled events are skipped.
    """

    time: float
    seq: int
    net: str
    value: LogicValue
    cause: str = ""
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class EventQueue:
    """Min-heap of :class:`Event` ordered by (time, seq)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Time of the most recently popped event."""
        return self._now

    def __len__(self) -> int:
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    def schedule(self, time: float, net: str, value: LogicValue,
                 cause: str = "") -> Event:
        """Schedule a transition; times must not precede current time.

        Raises:
            SimulationError: when scheduling into the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        ev = Event(time=time, seq=next(self._counter), net=net,
                   value=value, cause=cause)
        heapq.heappush(self._heap, (time, ev.seq, ev))
        return ev

    def pop(self) -> Event | None:
        """Pop the earliest non-cancelled event, or None when empty."""
        while self._heap:
            _, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self._now = ev.time
            return ev
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest pending event, or None."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        self._heap.clear()
        self._now = 0.0
