"""Dispatcher run queues.

A classic multilevel queue: one FIFO per effective priority, scanned from
the highest.  Effective priority is ``class base + in-class priority`` (see
:mod:`repro.kernel.lwp`), which makes every real-time LWP outrank every
timeshare LWP, matching the paper's answer to Chorus's real-time critique.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.kernel.lwp import Lwp


class RunQueue:
    """Priority-indexed FIFO queues of runnable LWPs."""

    def __init__(self):
        self._queues: dict[int, deque[Lwp]] = {}
        # The levels of _queues, best first.  A level's deque stays once
        # made (it may be empty), so this changes only when a priority
        # first appears.
        self._prios: list[int] = []
        self._count = 0

    def insert(self, lwp: Lwp, front: bool = False) -> None:
        prio = lwp.effective_priority
        q = self._queues.get(prio)
        if q is None:
            q = self._queues[prio] = deque()
            self._prios = sorted(self._queues, reverse=True)
        if front:
            q.appendleft(lwp)
        else:
            q.append(lwp)
        self._count += 1

    def remove(self, lwp: Lwp) -> bool:
        """Remove a specific LWP (it was stopped or killed while queued)."""
        q = self._queues.get(lwp.effective_priority)
        if q is not None:
            try:
                q.remove(lwp)
                self._count -= 1
                return True
            except ValueError:
                pass
        # Priority may have changed while queued; scan everything.
        for q in self._queues.values():
            try:
                q.remove(lwp)
                self._count -= 1
                return True
            except ValueError:
                continue
        return False

    def pick(self, eligible: Callable[[Lwp], bool]) -> Optional[Lwp]:
        """Highest-priority LWP satisfying ``eligible`` (e.g. CPU binding).

        FIFO within a priority level.
        """
        for prio in self._prios:
            q = self._queues[prio]
            for lwp in q:
                if eligible(lwp):
                    q.remove(lwp)
                    self._count -= 1
                    return lwp
        return None

    def peek(self, eligible: Callable[[Lwp], bool]) -> Optional[Lwp]:
        """The LWP :meth:`pick` would return, without removing it."""
        for prio in self._prios:
            for lwp in self._queues[prio]:
                if eligible(lwp):
                    return lwp
        return None

    def best_priority(self) -> Optional[int]:
        """Highest priority with a queued LWP, or None when empty."""
        for prio in self._prios:
            if self._queues[prio]:
                return prio
        return None

    def __len__(self) -> int:
        return self._count

    def __contains__(self, lwp: Lwp) -> bool:
        return any(lwp in q for q in self._queues.values())

    def snapshot(self) -> list[Lwp]:
        """All queued LWPs, best priority first (diagnostics)."""
        out: list[Lwp] = []
        for prio in self._prios:
            out.extend(self._queues[prio])
        return out
