"""Measuring the event loop from outside: the run recorder and the
per-layer profile.

:class:`Recorder` wraps ``Simulator.run`` for the life of a benchmark
process.  Every simulation a rep starts passes through it, so it times
each event loop and reads its exact work counts (events fired, syscalls
made) through the public API.  With ``profile=True`` it also runs each
event loop under ``cProfile``: self time is attributed to a layer by the
source file of each function, and call counts are read at a few named
entry points.  The simulation itself is untouched, which the benchmark
checks by comparing traced and untraced counts.
"""

from __future__ import annotations

import cProfile
import os
import time
from collections import Counter, defaultdict

from hostspeed import REFERENCE_S, calibrate

#: Layers, in reporting order.  ``python`` is the stdlib and builtins.
LAYERS = ("sim", "hw", "kernel", "kernel.syscalls", "kernel.sched",
          "kernel.net", "kernel.fs", "sync", "threads", "runtime", "obs",
          "load", "workloads", "python")

#: Top-level entry of ``src/repro`` -> layer.  ``analysis`` holds the
#: guest programs of Fig 5/6; ``models`` and ``pthreads`` are threads
#: libraries; ``api.py`` is the facade over the engine.
_TOP_LAYER = {
    "sim": "sim", "api.py": "sim", "hw": "hw", "kernel": "kernel",
    "errors.py": "kernel", "sync": "sync", "threads": "threads",
    "models": "threads", "pthreads": "threads", "runtime": "runtime",
    "obs": "obs", "load": "load", "workloads": "workloads",
    "analysis": "workloads",
}
_KERNEL_SUB = {"syscalls": "kernel.syscalls", "sched": "kernel.sched",
               "fs": "kernel.fs", "net.py": "kernel.net"}

HERE = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename: str, repro_dir: str) -> str:
    """The layer a function's source file belongs to.  ``bench`` is this
    benchmark's own wrappers (left out of every share); ``other`` is a
    ``repro`` module no layer names yet."""
    path = os.path.abspath(filename)
    if path.startswith(HERE + os.sep):
        return "bench"
    if not path.startswith(repro_dir + os.sep):
        return "python"
    parts = os.path.relpath(path, repro_dir).split(os.sep)
    layer = _TOP_LAYER.get(parts[0], "other")
    if layer == "kernel" and len(parts) > 1:
        layer = _KERNEL_SUB.get(parts[1], "kernel")
    return layer


def entry_points() -> dict:
    """Named entry point -> code objects whose calls it counts."""
    from repro.hw.cpu import CPU
    from repro.kernel.net import Network
    from repro.kernel.sched.dispatcher import Dispatcher
    from repro.obs.registry import MetricsRegistry
    from repro.sim.engine import Engine

    return {
        "steps": (CPU._step.__code__,),
        "schedule_steps": (CPU._schedule_step.__code__,),
        "cancels": (Engine.cancel.__code__,),
        "readiness": (Network.mark_readable.__code__,),
        "hook_calls": (MetricsRegistry.count.__code__,
                       MetricsRegistry.observe.__code__,
                       MetricsRegistry.sample.__code__),
        "wakeups": (Dispatcher.make_runnable.__code__,),
        # Every user-level SwitchTo effect lands in this handler.
        "switches": (CPU._switch_thread.__code__,),
    }


class RunRecord:
    """One ``Simulator.run`` call: host seconds, exact counts, and the
    index of the last calibration before it."""

    __slots__ = ("label", "host_s", "events", "syscalls", "cal")

    def __init__(self, label, host_s, events, syscalls, cal):
        self.label = label
        self.host_s = host_s
        self.events = events
        self.syscalls = syscalls
        self.cal = cal


class Recorder:
    """Wraps ``Simulator.run`` while installed.

    ``label`` tags the runs that follow (the server workloads set it to
    the architecture).  ``records`` collects one :class:`RunRecord` per
    run; ``profile`` turns on the per-layer profile, accumulated in
    ``self_s`` (layer -> self seconds, per label) and ``calls`` (entry
    point -> calls, per label).

    Host speed is calibrated before every run, and by the caller after
    each rep, so every run lies between two calibrations (see
    :meth:`scale`).  Calibrating run by run tracked the host best: on a
    series of ``server_poisson`` reps the spread of 15-rep medians was
    1.3% this way and 8.8% with one calibration per rep.
    """

    def __init__(self, repro_dir: str):
        self.repro_dir = repro_dir
        self.label = None
        self.records: list[RunRecord] = []
        self.profile = False
        self.self_s: dict = defaultdict(Counter)
        self.calls: dict = defaultdict(Counter)
        self.cals: list[float] = []
        self.cal_s = 0.0          # host seconds spent calibrating
        self._entries = None
        self._zero_steps = 0
        self._layer_cache: dict = {}
        self._run = None

    # ------------------------------------------------------------ install

    def install(self) -> "Recorder":
        from repro.api import Simulator
        from repro.hw.cpu import CPU

        self._entries = entry_points()
        run = Simulator.run
        schedule_step = CPU._schedule_step
        recorder = self

        def recorded_run(sim, *args, **kwargs):
            recorder.calibrate()
            before = sum(sim.syscall_counts().values())
            prof = cProfile.Profile() if recorder.profile else None
            if prof is not None:
                CPU._schedule_step = counted_schedule_step
                prof.enable()
            t0 = time.perf_counter()
            try:
                events = run(sim, *args, **kwargs)
            finally:
                host_s = time.perf_counter() - t0
                if prof is not None:
                    prof.disable()
                    CPU._schedule_step = schedule_step
            if prof is not None:
                recorder._tally(prof)
            recorder.records.append(RunRecord(
                recorder.label, host_s, events,
                sum(sim.syscall_counts().values()) - before,
                len(recorder.cals) - 1))
            return events

        def counted_schedule_step(cpu, delay_ns):
            if delay_ns == 0:
                recorder._zero_steps += 1
            schedule_step(cpu, delay_ns)

        Simulator.run = recorded_run
        self._run = run
        return self

    def uninstall(self) -> None:
        from repro.api import Simulator

        Simulator.run = self._run

    # ----------------------------------------------------------- host speed

    def calibrate(self) -> None:
        """Time the calibration loop."""
        t0 = time.perf_counter()
        self.cals.append(calibrate())
        self.cal_s += time.perf_counter() - t0

    def scale(self, record: RunRecord) -> float:
        """Factor taking the record's host time to the reference host
        speed: the calibrations on either side of the run, averaged."""
        return REFERENCE_S * 2 / (self.cals[record.cal]
                                  + self.cals[record.cal + 1])

    # ------------------------------------------------------------ profile

    def _tally(self, prof: cProfile.Profile) -> None:
        by_code = {}
        self_s = self.self_s[self.label]
        for entry in prof.getstats():
            code = entry.code
            if isinstance(code, str):     # builtin: no source file
                self_s["python"] += entry.inlinetime
                continue
            filename = code.co_filename
            layer = self._layer_cache.get(filename)
            if layer is None:
                layer = layer_of(filename, self.repro_dir)
                self._layer_cache[filename] = layer
            self_s[layer] += entry.inlinetime
            by_code[code] = by_code.get(code, 0) + entry.callcount
        calls = self.calls[self.label]
        for name, codes in self._entries.items():
            calls[name] += sum(by_code.get(c, 0) for c in codes)
        calls["zero_delay_steps"] += self._zero_steps
        self._zero_steps = 0
