"""The discrete-event engine.

The engine owns the virtual clock and the event queue and advances the
simulation by firing events in (time, sequence) order.  Everything above it
— hardware, kernel, threads library — expresses behaviour as events.

The engine knows nothing about CPUs or processes; it only runs callbacks.
Deadlock detection is delegated to an optional ``idle_check`` hook installed
by the machine, which can inspect kernel state when the event queue drains.
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
        # State of the run() in progress, shared with the CPUs' step
        # loops (CPU._run_steps), which fire steps in place and must
        # count them here and honour the same limits: events fired so
        # far, the until_ns horizon, and the max_events cap.
        self._fired = 0
        self._until_ns = inf
        self._max_events = inf
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
        """Fire events until the queue drains (or a limit is reached).

        Args:
            until_ns: stop once the clock would pass this absolute time.
            max_events: stop after firing this many events (guard rail for
                runaway simulations; raises SimulationError if exhausted).
            check_deadlock: when the queue drains, consult ``idle_check``
                and raise :class:`DeadlockError` if entities remain blocked.

        Returns:
            The number of events fired by this call.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._fired = 0
        self._until_ns = inf if until_ns is None else until_ns
        self._max_events = limit = inf if max_events is None else max_events
        # Hot loop: bound methods are hoisted.  The count lives on self
        # because a CPU's step loop adds to it: most steps never come
        # through here, running in place while they precede every
        # queued event.
        pop_next = self.queue.pop_next
        advance_to = self.clock.advance_to
        try:
            while True:
                next_time, ev = pop_next(until_ns)
                if ev is None:
                    if next_time is not None:
                        # Next live event lies beyond until_ns.
                        advance_to(until_ns)
                        break
                    if check_deadlock and self.idle_check is not None:
                        complaint = self.idle_check()
                        if complaint:
                            report = self.diagnose_hang()
                            if report:
                                complaint = f"{complaint}\n{report}"
                            raise DeadlockError(complaint)
                    break
                advance_to(next_time)
                # An event counts as it fires; one whose callback raises
                # is taken back, so only completed events are counted.
                self._fired += 1
                try:
                    ev.fn()
                except BaseException:
                    self._fired -= 1
                    raise
                if self._fired >= limit:
                    raise SimulationError(
                        f"max_events={max_events} exhausted at "
                        f"t={self.now_usec:.1f}us; runaway simulation?")
        finally:
            self._running = False
            self._events_fired += self._fired
        return self._fired

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
