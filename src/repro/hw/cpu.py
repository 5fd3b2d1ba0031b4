"""The CPU executor: steps activities, interprets effects.

A :class:`CPU` runs one LWP at a time.  Running means repeatedly stepping
the LWP's current activity: send the pending resume value into the top
generator frame, interpret the effect it yields, and schedule the next step
after the effect's cost.  The executor is the only place virtual time is
charged to computation.

The CPU is deliberately ignorant of policy.  It delegates:

* system-call dispatch, page faults, blocking, and signal checks to the
  kernel object installed by the machine;
* what to do when an activity's bottom frame returns to the activity's
  ``on_return`` hook (the threads library uses this for implicit
  ``thread_exit()``);
* what to run next, when its LWP blocks or exits, to the kernel dispatcher.

This mirrors the paper's structure: the hardware runs whatever context the
kernel dispatched; the kernel sees only LWPs; user-level thread switches
(the :class:`~repro.hw.isa.SwitchTo` effect) happen "without the kernel
knowing it".

Host performance
----------------

``_step`` and the effect interpreters are the simulator's innermost loop;
they obey the hot-path rules of ARCHITECTURE §10:

* *Step slots.*  A CPU's next step is never an ``Event``:
  :meth:`CPU._schedule_step` reserves a seq from the queue's counter and
  parks ``(time_ns, seq)`` in the one-slot register ``_next_step``, which
  the engine merges with the event heap in ``(time, seq)`` order (see
  :meth:`Engine.run <repro.sim.engine.Engine.run>`).  Cancelling a step
  clears the slot.  No effect allocates an event or touches the heap.
* ``_step`` dispatches through a *type-keyed table* (``_DISPATCH``), one
  dict lookup on ``type(effect)`` instead of an isinstance chain.  Effect
  subclasses resolve through the MRO once and are cached.
* Trace emission is gated on the tracer's per-category flags before any
  argument is built, so a disabled tracer costs one attribute check.
* Hot handlers read ``activity.frames[-1]`` and ``self._clock.now_ns``
  directly rather than through properties.  The syscall-exit signal
  test reads the two pending-signal words (``Sigset.bits``) directly.
* *Accounting fast path.*  Every charge goes through :meth:`CPU._account`,
  which adds to the CPU and LWP counters in place.  The CPU-time
  watchers (``ITIMER_VIRTUAL``/``ITIMER_PROF``, a ``profil`` buffer,
  ``RLIMIT_CPU``) run in :meth:`Lwp.watch <repro.kernel.lwp.Lwp.watch>`
  only when the LWP's own state shows one armed right now; nothing
  caches that answer.
* *One* :class:`ExecContext` *per dispatch*, built in :meth:`CPU.assign`
  and dropped in :meth:`CPU.release`; ``GetContext``, syscall entry and
  exit all hand out that one.
* Syscall entry builds its kernel ``Frame`` in place; frame labels and
  latency metric names are memoized per name, and counters and
  histograms come from the registry's pre-resolved families.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Optional

from repro.errors import (Errno, InterruptedSleep, SimulationError,
                          SyscallError)
from repro.hw import isa
from repro.hw.context import Activity, Frame, Mode
from repro.hw.memory import page_of


_KERNEL = Mode.KERNEL
_USER = Mode.USER


class ExecContext:
    """Handle on the current execution environment.

    Passed to kernel syscall handlers and returned to user code by the
    :class:`~repro.hw.isa.GetContext` effect.  User library code uses it to
    reach the per-process threads runtime; kernel code uses it to reach the
    LWP and process structures.

    A CPU builds one per dispatch (:meth:`CPU.assign`).  ``engine``,
    ``kernel`` and ``costs`` are copied from the CPU once, as plain
    slots; ``thread`` and ``process`` are read live from the LWP.
    """

    __slots__ = ("cpu", "lwp", "engine", "kernel", "costs")

    def __init__(self, cpu: "CPU", lwp):
        self.cpu = cpu
        self.lwp = lwp
        self.engine = cpu.engine
        self.kernel = cpu.kernel
        self.costs = cpu.costs

    @property
    def process(self):
        return self.lwp.process

    @property
    def thread(self):
        """The user thread currently on this LWP (None in pure-LWP code)."""
        return self.lwp.current_thread

    def __repr__(self) -> str:
        return f"<ExecContext cpu={self.cpu.index} lwp={self.lwp!r}>"


class CPU:
    """One simulated processor."""

    def __init__(self, index: int, engine, costs):
        self.index = index
        self.engine = engine
        self.costs = costs
        self.tracer = engine.tracer
        self.kernel = None  # installed by the machine
        self.lwp = None  # currently running LWP
        self._ctx: Optional[ExecContext] = None  # its ExecContext
        # Hot-path caches: the next step is scheduled once per effect,
        # so the queue and clock are resolved here rather than per call.
        self._queue = engine.queue
        self._clock = engine.clock
        # The step slot: the next step's reserved (time_ns, seq), or
        # None.  The engine runs it (``_step``) in its turn.
        self._next_step: Optional[tuple] = None
        engine.step_sources.append(self)
        self._charge_end_ns: Optional[int] = None
        # Virtual time the current LWP was assigned.  Feeds both the
        # metrics (per-class / per-LWP on-CPU accounting) and the
        # scheduler policies' span bookkeeping (CFS vruntime, SJF burst
        # estimates) via dispatcher.on_offcpu() in release().
        self._oncpu_since: Optional[int] = None
        # The activity whose generator is live on the Python stack right
        # now (frame injection must defer while set).
        self._stepping_activity = None
        self._preempt_pending = False
        # Accounting.
        self.user_ns = 0
        self.kernel_ns = 0
        self.dispatch_count = 0

    @property
    def name(self) -> str:
        return f"cpu-{self.index}"

    @property
    def idle(self) -> bool:
        return self.lwp is None

    @property
    def busy_ns(self) -> int:
        return self.user_ns + self.kernel_ns

    # ------------------------------------------------------------ dispatch

    def assign(self, lwp) -> None:
        """Begin running ``lwp`` on this CPU (kernel dispatcher calls this)."""
        if self.lwp is not None:
            raise SimulationError(
                f"{self.name} already running {self.lwp!r}")
        self.lwp = lwp
        lwp.cpu = self
        self._ctx = ExecContext(self, lwp)
        self.dispatch_count += 1
        self._preempt_pending = False
        self._oncpu_since = self._clock.now_ns
        if self.tracer.want_sched:
            self.tracer.emit(self._clock.now_ns, "sched", "dispatch",
                             lwp.name, cpu=self.name)
        # Dispatch latency: run-queue removal, context load, cache warmup.
        self._account(lwp, self.costs.kernel_dispatch, True)
        self._schedule_step(self.costs.kernel_dispatch)

    def release(self) -> None:
        """Detach the current LWP (it blocked, exited, or was preempted)."""
        lwp = self.lwp
        if lwp is not None:
            lwp.cpu = None
            if self._oncpu_since is not None:
                span = self._clock.now_ns - self._oncpu_since
                m = self.engine.metrics
                if m is not None:
                    m.histogram_families["sched.oncpu_ns"][
                        lwp.sched_class.value].observe(span)
                    m.counter_families["sched.oncpu_ns_by_lwp"][
                        lwp.name].value += span
                if self.kernel is not None:
                    # Policy span bookkeeping (CFS vruntime, SJF burst
                    # estimate) — pure accounting, schedules nothing.
                    self.kernel.dispatcher.on_offcpu(lwp, span)
        self._oncpu_since = None
        self.lwp = None
        self._ctx = None
        self._cancel_step()

    def request_preempt(self) -> None:
        """Ask the CPU to give up its LWP at the next preemption point.

        If the LWP is in the middle of a user-mode :class:`Charge`, the
        charge is interrupted immediately and the remainder saved.  Kernel
        charges are not interruptible (the simulated kernel runs
        non-preemptively, as SunOS of that era did inside the kernel).
        """
        if self.lwp is None:
            return
        activity = self.lwp.current_activity
        if (self._charge_end_ns is not None and activity is not None
                and not activity.in_kernel):
            remaining = self._charge_end_ns - self._clock.now_ns
            if remaining > 0:
                # The charge was accounted in full when it started; hand the
                # unused remainder back and re-charge it when the LWP next
                # runs.
                activity.pending_charge_ns += remaining
                self._account(self.lwp, -remaining, False)
            self._cancel_step()
            self._charge_end_ns = None
            lwp = self.lwp
            self.release()
            self.kernel.dispatcher.on_preempted(lwp)
        else:
            self._preempt_pending = True

    # ------------------------------------------------------------ stepping

    def _schedule_step(self, delay_ns: int) -> None:
        # Runs once per simulated effect.  The seq comes from the queue's
        # counter, so the step takes the exact (time, seq) place an event
        # pushed now would have; a step already in the slot is replaced.
        # delay_ns comes from the cost model (validated non-negative at
        # Charge construction).
        q = self._queue
        seq = q._seq
        q._seq = seq + 1
        self._next_step = (self._clock.now_ns + delay_ns, seq)

    def _context(self, lwp) -> ExecContext:
        """The dispatch's ExecContext for ``lwp``.

        A step can outlive its dispatch (the process exited under it, so
        this CPU was released and perhaps given another LWP); the effect
        it yielded still runs for its own LWP, so it gets a fresh one.
        """
        if self.lwp is lwp:
            return self._ctx
        return ExecContext(self, lwp)

    def _cancel_step(self) -> None:
        self._next_step = None

    def _account(self, lwp, ns: int, kernel: bool) -> None:
        """Charge ``ns`` of user or kernel time: every charge comes here.

        The CPU is always charged; ``lwp`` only while it holds this CPU.
        A step can outlive its dispatch (its process exited under it, so
        the CPU was released and perhaps given another LWP): that time
        is the CPU's and no LWP's, so no watcher of a dead or unrelated
        LWP sees it.  The LWP's CPU-time watchers (:meth:`Lwp.watch`)
        run only when its interval timers, profiling state or process
        ``RLIMIT_CPU`` show one armed, read afresh on every charge.
        """
        if kernel:
            self.kernel_ns += ns
        else:
            self.user_ns += ns
        if lwp is None or lwp is not self.lwp:
            return
        if kernel:
            lwp.system_ns += ns
        else:
            lwp.user_ns += ns
        if (lwp.vtimer_remaining_ns or lwp.ptimer_remaining_ns
                or lwp.profiling is not None
                or lwp.process.rlimits.cpu_ns is not None):
            lwp.watch(ns, kernel)

    def _step(self) -> None:
        """Execute one effect of the current activity."""
        self._charge_end_ns = None
        lwp = self.lwp
        if lwp is None:  # raced with preemption/block; nothing to do
            return
        activity = lwp.current_activity
        if activity is None:
            raise SimulationError(f"{lwp!r} dispatched with no activity")
        frame = activity.frames[-1]

        # Honor a preemption requested while we were mid-effect.
        if self._preempt_pending and frame.mode is not _KERNEL:
            self._preempt_pending = False
            self.release()
            self.kernel.dispatcher.on_preempted(lwp)
            return

        # Finish an interrupted charge before touching the generator.
        if activity.pending_charge_ns > 0:
            ns = activity.pending_charge_ns
            activity.pending_charge_ns = 0
            self._charge(lwp, activity, isa.Charge(ns))
            return

        activity.started = True
        # While the generator is live on the Python stack, nobody may
        # push frames onto this activity (kernel signal delivery checks
        # this flag and defers instead).
        self._stepping_activity = activity
        engine = self.engine
        engine.stepping_cpu = self
        try:
            if activity.resume_exc is not None:
                exc = activity.resume_exc
                activity.resume_exc = None
                effect = frame.gen.throw(exc)
            else:
                value = activity.resume_value
                activity.resume_value = None
                effect = frame.gen.send(value)
        except StopIteration as stop:
            self._frame_returned(lwp, activity, stop.value)
            return
        except (SyscallError, InterruptedSleep) as exc:
            self._frame_raised(lwp, activity, exc)
            return
        finally:
            self._stepping_activity = None
            engine.stepping_cpu = None

        # Type-keyed effect dispatch (the table lives at module scope).
        handler = _DISPATCH.get(effect.__class__)
        if handler is None:
            handler = _resolve_effect_handler(effect)
        handler(self, lwp, activity, effect)

    # ----------------------------------------------------- effect handling

    def _charge(self, lwp, activity: Activity, effect: "isa.Charge") -> None:
        """Consume CPU time in the current mode, then step again.

        The full amount is accounted up front; if the charge is preempted,
        :meth:`request_preempt` refunds the unused remainder.
        """
        ns = effect.ns
        kernel = activity.frames[-1].mode is _KERNEL
        self._account(lwp, ns, kernel)
        if ns > 0 and not kernel:
            self._charge_end_ns = self._clock.now_ns + ns
        self._schedule_step(ns)

    def _do_get_context(self, lwp, activity: Activity, effect) -> None:
        activity.resume_value = self._context(lwp)
        activity.resume_exc = None
        self._schedule_step(0)

    def _do_setjmp(self, lwp, activity: Activity, effect) -> None:
        activity.set_resume(object())  # opaque jump-buffer token
        self._charge_then_step(lwp, self.costs.setjmp, activity.in_kernel)

    def _do_longjmp(self, lwp, activity: Activity, effect) -> None:
        activity.set_resume(None)
        self._charge_then_step(lwp, self.costs.longjmp, activity.in_kernel)

    def _charge_then_step(self, lwp, ns: int, kernel: bool) -> None:
        self._account(lwp, ns, kernel)
        self._schedule_step(ns)

    def _enter_kernel(self, lwp, activity: Activity,
                      effect: "isa.Syscall") -> None:
        """Trap: charge entry cost and push the handler frame."""
        name = effect.name
        kernel = self.kernel
        if self.tracer.want_syscall:
            self.tracer.emit(self._clock.now_ns, "syscall", "enter",
                             lwp.name, call=name)
        kernel.note_syscall(lwp, name)
        frame = Frame(kernel.syscall_handler(self._context(lwp), name,
                                             effect.args, effect.kwargs),
                      _KERNEL, _sys_label(name))
        activity.frames.append(frame)
        if self.engine.metrics is not None:
            frame.enter_ns = self._clock.now_ns
        activity.resume_value = None
        activity.resume_exc = None
        self._charge_then_step(lwp, self.costs.syscall_entry, True)

    def _switch_thread(self, lwp, activity: Activity,
                       effect: "isa.SwitchTo") -> None:
        """User-level context switch: no kernel involvement."""
        target = effect.target
        if target.finished:
            raise SimulationError(
                f"switch to finished activity {target.name}")
        if self.tracer.want_thread:
            self.tracer.emit(self._clock.now_ns, "thread", "switch",
                             lwp.name, frm=activity.name, to=target.name)
        lwp.current_activity = target
        self._charge_then_step(lwp, self.costs.thread_switch_user, False)

    def _touch(self, lwp, activity: Activity, effect: "isa.Touch") -> None:
        pageno = page_of(effect.offset)
        if effect.mobj.is_resident(pageno):
            activity.set_resume(None)
            self._schedule_step(0)
            return
        # Page fault: synchronous kernel entry on this LWP only.
        if self.tracer.want_vm:
            self.tracer.emit(self._clock.now_ns, "vm", "fault",
                             lwp.name, obj=effect.mobj.name, page=pageno)
        handler = self.kernel.page_fault_handler(
            self._context(lwp), effect.mobj, pageno, effect.write)
        activity.push(handler, _KERNEL, label="pagefault")
        if self.engine.metrics is not None:
            activity.frames[-1].enter_ns = self._clock.now_ns
        activity.set_resume(None)
        self._account(lwp, self.costs.trap_entry, True)
        self._schedule_step(self.costs.trap_entry)

    def _block(self, lwp, activity: Activity, effect: "isa.Block") -> None:
        """Sleep the LWP on a kernel wait channel and free this CPU."""
        if not activity.in_kernel:
            raise SimulationError(
                "Block effect yielded from user mode; user code must "
                "block via the threads library or a system call")
        if self.lwp is not lwp:
            raise SimulationError(
                f"{self.name} blocking {lwp!r} but running {self.lwp!r}")
        if self.tracer.want_sched:
            # Uniform channel-name protocol: WaitChannel and ChannelSet
            # both carry .name.
            self.tracer.emit(self._clock.now_ns, "sched", "block",
                             lwp.name, chan=isa.channel_name(effect.channel))
        self._account(lwp, self.costs.kernel_block, True)
        self.release()
        self.kernel.block_lwp(lwp, effect.channel,
                              interruptible=effect.interruptible,
                              indefinite=effect.indefinite)
        self.kernel.dispatcher.cpu_idle(self)

    # ------------------------------------------------------- frame returns

    def _frame_returned(self, lwp, activity: Activity, value: Any) -> None:
        frame = activity.frames.pop()
        if activity.frames:
            if frame.saved_resume is not None:
                # An injected frame (signal handler) finished: re-apply the
                # resumption it displaced.
                kind, payload = frame.saved_resume
                if kind == "exc":
                    activity.set_resume_exc(payload)
                else:
                    activity.set_resume(payload)
                self._account(lwp, self.costs.signal_return, False)
                self._schedule_step(self.costs.signal_return)
                return
            activity.resume_value = value
            activity.resume_exc = None
            if frame.mode is _KERNEL and activity.frames[-1].mode is _USER:
                # Returning from a system call (or fault): charge the exit
                # path and let the kernel deliver any pending signals.
                if self.tracer.want_syscall:
                    self.tracer.emit(
                        self._clock.now_ns, "syscall", "exit", lwp.name,
                        call=frame.label, ret=_brief(value))
                m = self.engine.metrics
                if m is not None and frame.enter_ns is not None:
                    family, key = _latency_metric(frame.label)
                    m.histogram_families[family][key].observe(
                        self._clock.now_ns - frame.enter_ns)
                ns = self.costs.syscall_exit
                self._account(lwp, ns, True)
                if lwp.pending.bits or lwp.process.signals.pending.bits:
                    self.kernel.kernel_exit_check(self._context(lwp))
                self._schedule_step(ns)
            else:
                self._schedule_step(0)
            return

        # Bottom frame returned: the activity's body is done.
        if activity.on_return is not None:
            follow_on = activity.on_return(self._context(lwp), value)
            if follow_on is not None:
                activity.push(follow_on, _USER, label="on_return")
                activity.set_resume(None)
                self._schedule_step(0)
                return
        activity.finished = True
        activity.result = value
        self.release()
        self.kernel.on_activity_finished(lwp, activity, value)
        self.kernel.dispatcher.cpu_idle(self)

    def _frame_raised(self, lwp, activity: Activity,
                      exc: BaseException) -> None:
        """An exception propagated out of the top frame."""
        frame = activity.frames.pop()
        if isinstance(exc, InterruptedSleep):
            # Only meaningful across the kernel/user boundary.
            exc = SyscallError(Errno.EINTR, frame.label, "interrupted")
        if activity.frames:
            # An injected frame that died does not re-apply what it
            # displaced: the handler's failure takes precedence.
            below = activity.frames[-1]
            if frame.mode is _KERNEL and below.mode is _USER:
                if self.tracer.want_syscall:
                    self.tracer.emit(
                        self._clock.now_ns, "syscall", "error", lwp.name,
                        call=frame.label, err=str(exc))
                m = self.engine.metrics
                if m is not None:
                    if frame.enter_ns is not None:
                        family, key = _latency_metric(frame.label)
                        m.histogram_families[family][key].observe(
                            self._clock.now_ns - frame.enter_ns)
                    if isinstance(exc, SyscallError):
                        call = frame.label[4:] if frame.label.startswith(
                            "sys_") else frame.label
                        m.count(f"syscall.errno.{call}.{exc.errno.name}")
                activity.set_resume_exc(exc)
                self._account(lwp, self.costs.syscall_exit, True)
                self.kernel.kernel_exit_check(self._context(lwp))
                self._schedule_step(self.costs.syscall_exit)
            else:
                activity.set_resume_exc(exc)
                self._schedule_step(0)
            return
        # Uncaught at the bottom of an activity: the simulated program
        # failed.  Let the kernel decide (it kills the process).
        activity.finished = True
        self.release()
        self.kernel.on_activity_crashed(lwp, activity, exc)
        self.kernel.dispatcher.cpu_idle(self)

    # ------------------------------------------------------------ kernel API

    def inject_user_frame(self, activity: Activity, gen, label: str) -> None:
        """Push a user frame (signal handler) on top of ``activity``.

        The activity's pending resumption is parked on the new frame and
        re-applied when it returns, so the interrupted code is unaffected.
        The caller ensures the activity is not mid-charge.
        """
        if activity.resume_exc is not None:
            saved = ("exc", activity.resume_exc)
        else:
            saved = ("value", activity.resume_value)
        activity.resume_exc = None
        activity.resume_value = None
        activity.push(gen, _USER, label=label)
        activity.top.saved_resume = saved
        self._account(self.lwp, self.costs.signal_deliver, False)

    def __repr__(self) -> str:
        running = self.lwp.name if self.lwp else "idle"
        return f"<CPU {self.index}: {running}>"


#: The type-keyed effect dispatch table: effect class -> unbound CPU
#: method.  Shared by all CPUs; exact-type hits are one dict lookup.
_DISPATCH = {
    isa.Charge: CPU._charge,
    isa.Syscall: CPU._enter_kernel,
    isa.SwitchTo: CPU._switch_thread,
    isa.GetContext: CPU._do_get_context,
    isa.Setjmp: CPU._do_setjmp,
    isa.Longjmp: CPU._do_longjmp,
    isa.Touch: CPU._touch,
    isa.Block: CPU._block,
}


def _resolve_effect_handler(effect):
    """Slow path: resolve an effect subclass through its MRO and cache
    the result so subsequent yields of that type are table hits."""
    for klass in type(effect).__mro__[1:]:
        handler = _DISPATCH.get(klass)
        if handler is not None:
            _DISPATCH[type(effect)] = handler
            return handler
    raise SimulationError(f"unknown effect: {effect!r}")


def _brief(value: Any) -> str:
    """Compact rendering of a syscall return value for traces."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


@cache
def _sys_label(name: str) -> str:
    """The kernel frame label of a syscall."""
    return f"sys_{name}"


@cache
def _latency_metric(frame_label: str) -> tuple:
    """Histogram of a kernel frame's entry-to-return latency, as a
    registry family and key: the metric is named ``<family>.<key>``."""
    if frame_label.startswith("sys_"):
        return "syscall.latency_ns", frame_label[4:]
    if frame_label == "pagefault":
        return "vm", "pagefault_latency_ns"
    return "kernel.latency_ns", frame_label
