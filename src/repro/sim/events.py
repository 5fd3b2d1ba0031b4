"""Event queue for the discrete-event engine.

A simple binary-heap priority queue of :class:`Event` records.  Events carry
a monotonically increasing sequence number so that events scheduled for the
same instant fire in FIFO order, which keeps the whole simulation
deterministic.

Cancellation is lazy: cancelled events stay in the heap and are skipped when
popped.  This is the standard technique (used by e.g. ``sched`` and most
network simulators) and keeps cancellation O(1).

Host performance: the heap stores ``(time_ns, seq, event)`` tuples rather
than bare events, so every sift comparison ``heapq`` makes is a C-level
tuple comparison instead of a Python ``__lt__`` call.  CPU steps, the
most frequent kind of scheduled work, never enter the heap: each CPU
keeps its next step in a one-slot register under a seq reserved from
this queue's counter, and the engine merges those slots with the heap
(see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class Event:
    """A scheduled callback.

    Attributes:
        time_ns: absolute virtual time at which the event fires.
        seq: tie-breaker preserving scheduling order at equal times.
        fn: zero-argument callable invoked when the event fires.
        cancelled: set by :meth:`cancel`; a cancelled event never fires.
    """

    __slots__ = ("time_ns", "seq", "fn", "cancelled", "tag")

    def __init__(self, time_ns: int, seq: int, fn: Callable[[], None],
                 tag: str = ""):
        self.time_ns = time_ns
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.tag = tag

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time_ns != other.time_ns:
            return self.time_ns < other.time_ns
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        tag = f" {self.tag}" if self.tag else ""
        return f"<Event t={self.time_ns}ns seq={self.seq}{tag}{state}>"


class EventQueue:
    """Min-heap of ``(time_ns, seq, event)`` entries."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0

    def push(self, time_ns: int, fn: Callable[[], None],
             tag: str = "") -> Event:
        """Schedule ``fn`` at absolute time ``time_ns`` and return the event."""
        seq = self._seq
        ev = Event(time_ns, seq, fn, tag)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time_ns, seq, ev))
        return ev

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty.

        Cancelled events are discarded transparently.
        """
        return self.pop_next()[1]

    def peek_time(self) -> Optional[int]:
        """Time of the next live event without removing it, or None."""
        # The empty key sorts before every entry, so nothing pops.
        return self.pop_next(before=())[0]

    def pop_next(self, until_ns: Optional[int] = None,
                 before: Optional[tuple] = None):
        """The queue's one pop, fused with a peek for the engine's loop.

        Returns ``(time_ns, event)`` for the next live event, popping it,
        if it lies within ``until_ns`` and sorts before ``before``, a
        ``(time_ns, seq)`` key such as a CPU's pending step; otherwise
        ``(time_ns, None)`` without popping.  Returns ``(None, None)``
        when the queue is empty.  Cancelled entries met on the way are
        discarded.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2].cancelled:
                heapq.heappop(heap)
                continue
            t = entry[0]
            if ((until_ns is not None and t > until_ns)
                    or (before is not None and before < entry)):
                return t, None
            heapq.heappop(heap)
            self._live -= 1
            return t, entry[2]
        return None, None

    def note_cancel(self) -> None:
        """Bookkeeping hook: callers that cancel events may report it here.

        Only affects :meth:`__len__`'s live-count accuracy; correctness of
        pop/peek never depends on it.
        """
        if self._live > 0:
            self._live -= 1

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None
