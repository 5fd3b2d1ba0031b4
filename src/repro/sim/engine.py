"""The discrete-event engine.

The engine owns the virtual clock and the event queue and advances the
simulation by firing events in (time, sequence) order.  Everything above it
— hardware, kernel, threads library — expresses behaviour as events.

The engine knows nothing about CPUs or processes; it runs callbacks, and
the steps of registered *step sources*: objects holding at most one
pending step in a ``_next_step`` slot, run by their ``_step()``.  Each
CPU is one, so its steps never touch the heap.  Deadlock detection is
delegated to an optional ``idle_check`` hook installed by the machine,
which can inspect kernel state when the queue and every slot drain.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue
from repro.sim.rng import DeterministicRNG
from repro.sim.trace import Tracer


class Engine:
    """Discrete-event simulation driver.

    Attributes:
        clock: the virtual clock (integer nanoseconds).
        tracer: structured trace collector (off by default).
        rng: deterministic random source with named sub-streams.
    """

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None):
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self.tracer = tracer if tracer is not None else Tracer()
        self.rng = DeterministicRNG(seed)
        self._running = False
        self._events_fired = 0
        # Step sources (the CPUs register themselves): see run().
        self.step_sources: list = []
        # Hook returning a human-readable description of blocked entities,
        # or None when being idle is legitimate.  Installed by the machine.
        self.idle_check: Optional[Callable[[], Optional[str]]] = None
        # Hook rendering a full wait-for-graph report of a hang (who
        # waits on what, held by whom).  Installed by the kernel.
        self.hang_reporter: Optional[Callable[[], str]] = None
        # Active fault-injection plan (repro.sim.faults.FaultPlan).
        self.faults = None
        # Active schedule-perturbation plan (repro.sim.schedule.
        # SchedulePlan): consulted at instrumented yield points.
        self.schedule = None
        # Scheduling-class override armed by a SchedulerChoice rule: a
        # plain class-name string ("CFS", "MLFQ", ...).  The kernel
        # interprets it at LWP creation; the engine itself stays
        # kernel-agnostic.
        self.sched_class_override: Optional[str] = None
        # Attached MetricsRegistry (repro.obs.registry), or None.
        # Instrumentation sites gate on `engine.metrics is not None` —
        # the same one-attribute-check price as the tracer gates — and
        # hooks are passive (clock reads + dict updates only), so
        # enabling metrics never perturbs virtual time or trace digests.
        self.metrics = None
        # Passive observers of synchronization events (acquire/release,
        # cv wait/signal, thread exit).  Appended to by the dynamic
        # detectors in repro.explore; empty in normal runs.
        self.sync_listeners: list = []
        # The CPU whose activity is mid-step right now (set/cleared by
        # CPU._step around the generator resume).  Lets observers
        # attribute an in-flight access to its executor without scanning
        # every CPU.
        self.stepping_cpu = None

    # ----------------------------------------------------------------- time

    @property
    def now_ns(self) -> int:
        """Current virtual time in nanoseconds."""
        return self.clock.now_ns

    @property
    def now_usec(self) -> float:
        """Current virtual time in microseconds."""
        return self.clock.now_usec

    # ------------------------------------------------------------ scheduling

    def call_at(self, time_ns: int, fn: Callable[[], None],
                tag: str = "") -> Event:
        """Schedule ``fn`` at absolute virtual time ``time_ns``."""
        if time_ns < self.clock.now_ns:
            raise SimulationError(
                f"cannot schedule event in the past: {time_ns} < "
                f"{self.clock.now_ns}")
        return self.queue.push(time_ns, fn, tag)

    def call_after(self, delay_ns: int, fn: Callable[[], None],
                   tag: str = "") -> Event:
        """Schedule ``fn`` after ``delay_ns`` nanoseconds of virtual time."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.queue.push(self.clock.now_ns + delay_ns, fn, tag)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event.  Safe to call more than once."""
        if not event.cancelled:
            event.cancel()
            self.queue.note_cancel()

    # ----------------------------------------------------------------- run

    def run(self, until_ns: Optional[int] = None,
            max_events: Optional[int] = None,
            check_deadlock: bool = True) -> int:
        """Fire events and steps in ``(time, seq)`` order until the queue
        and every step slot drain (or a limit is reached).

        A step source's ``_next_step`` is a ``(time_ns, seq)`` key with
        a seq reserved from the queue's counter, so it sorts among
        queued events as an event pushed under that seq would; running
        it (``source._step()``) counts as firing one event.  After a
        step, the same source's next one runs while it still sorts
        before the heap top and every other slot.

        Args:
            until_ns: stop once the clock would pass this absolute time.
            max_events: stop after firing this many events (guard rail for
                runaway simulations; raises SimulationError if exhausted).
            check_deadlock: when everything drains, consult
                ``idle_check`` and raise :class:`DeadlockError` if
                entities remain blocked.

        Returns:
            The number of events fired by this call.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        horizon = inf if until_ns is None else until_ns
        limit = inf if max_events is None else max_events
        fired = 0
        heap = self.queue._heap
        pop_next = self.queue.pop_next
        clock = self.clock
        advance_to = clock.advance_to
        # Each source with the others, whose slots its fast path checks.
        sources = [(s, tuple(o for o in self.step_sources if o is not s))
                   for s in self.step_sources]
        try:
            while True:
                # The earliest slot; then, unless the heap top sorts
                # after it, the first live heap entry if it sorts before
                # that slot and lies within the horizon.
                src = key = None
                for s, others in sources:
                    k = s._next_step
                    if k is not None and (key is None or k < key):
                        src, key, rivals = s, k, others
                if key is None or (heap and heap[0] < key):
                    t, ev = pop_next(until_ns, key)
                    if ev is not None:
                        advance_to(t)
                        fn = ev.fn
                        src = None
                    elif key is None:
                        if t is not None:
                            # Next live event lies beyond until_ns.
                            advance_to(until_ns)
                        elif check_deadlock and self.idle_check is not None:
                            self._check_idle()
                        break
                if src is not None:
                    if key[0] > horizon:
                        advance_to(until_ns)
                        break
                    fn = src._step
                    src._next_step = None
                    clock.now_ns = key[0]
                while True:
                    # An event or step counts as it fires; one that
                    # raises is taken back, so only completed ones count.
                    fired += 1
                    try:
                        fn()
                    except BaseException:
                        fired -= 1
                        raise
                    if fired >= limit:
                        raise SimulationError(
                            f"max_events={max_events} exhausted at "
                            f"t={self.now_usec:.1f}us; runaway simulation?")
                    if src is None:
                        break
                    # Fast path: the same source again, while its next
                    # step sorts first.  A cancelled heap top only sends
                    # the choice back to the full merge above.
                    key = src._next_step
                    if (key is None or key[0] > horizon
                            or (heap and heap[0] < key)):
                        break
                    for s in rivals:
                        k = s._next_step
                        if k is not None and k < key:
                            break
                    else:
                        src._next_step = None
                        clock.now_ns = key[0]
                        continue
                    break
        finally:
            self._running = False
            self._events_fired += fired
        return fired

    def _check_idle(self) -> None:
        """Everything drained: raise if the idle check reports entities
        that are still blocked."""
        complaint = self.idle_check()
        if complaint:
            report = self.diagnose_hang()
            if report:
                complaint = f"{complaint}\n{report}"
            raise DeadlockError(complaint)

    def diagnose_hang(self) -> str:
        """Render the wait-for graph of everything currently blocked.

        Delegates to the ``hang_reporter`` hook (installed by the kernel);
        callable at any time, not just at deadlock — useful from a
        debugger while a simulation seems wedged.  Returns "" when no
        reporter is installed.
        """
        if self.hang_reporter is None:
            return ""
        return self.hang_reporter()

    def run_for(self, delay_ns: int, **kw) -> int:
        """Run for ``delay_ns`` of virtual time from now."""
        return self.run(until_ns=self.clock.now_ns + delay_ns, **kw)

    @property
    def events_fired(self) -> int:
        """Total events fired over the engine's lifetime."""
        return self._events_fired
