"""Host-speed calibration: a fixed pure-Python event loop.

The benchmark's host is shared, and its speed drifts by tens of percent
over seconds to minutes.  Every host time the benchmark reports is
therefore divided by the time of this loop, measured right beside it,
and multiplied by :data:`REFERENCE_S`: the figures read as host time on
a machine where the loop takes :data:`REFERENCE_S` seconds.  The loop
has the simulator's shape (a heap of timestamped events, generator
processes resumed by ``send``, attribute and dict traffic) and a
working set of thousands of live objects, so a busy host slows both
alike; of the loop shapes tried, many short processes tracked the
simulator best.  It shares no code with ``src/``: a change to the
simulator moves the reported times in full.
"""

from __future__ import annotations

import heapq
import time

#: Seconds the loop takes on the reference host (a 2-CPU x86-64 VM,
#: CPython 3.11, unloaded).  Only the scale of the figures depends on it.
REFERENCE_S = 0.1

_PROCESSES = 2_000
_STEPS = 20


class _Event:
    __slots__ = ("time", "fn")

    def __init__(self, time_, fn):
        self.time = time_
        self.fn = fn


class _Loop:
    def __init__(self):
        self.heap = []
        self.now = 0
        self.seq = 0
        self.tally = {}

    def after(self, delay, fn):
        self.seq += 1
        t = self.now + delay
        heapq.heappush(self.heap, (t, self.seq, _Event(t, fn)))

    def run(self):
        fired = 0
        heap = self.heap
        while heap:
            _t, _seq, ev = heapq.heappop(heap)
            self.now = ev.time
            ev.fn()
            fired += 1
        return fired


class _Process:
    def __init__(self, loop, gen):
        self.loop = loop
        self.gen = gen

    def step(self):
        try:
            delay = self.gen.send(None)
        except StopIteration:
            return
        self.loop.after(delay, self.step)


def _body(loop, k):
    for i in range(_STEPS):
        key = (k + i) & 7
        loop.tally[key] = loop.tally.get(key, 0) + 1
        yield (i * 31 + k) % 97 + 1


def calibrate() -> float:
    """Host seconds for one pass of the loop."""
    t0 = time.perf_counter()
    loop = _Loop()
    for k in range(_PROCESSES):
        _Process(loop, _body(loop, k)).step()
    fired = loop.run()
    elapsed = time.perf_counter() - t0
    if fired != _PROCESSES * _STEPS:
        raise RuntimeError(f"calibration loop fired {fired} events")
    return elapsed
