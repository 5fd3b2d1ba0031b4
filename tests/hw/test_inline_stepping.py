"""Differential test of step slots.

A CPU never queues its next step: ``CPU._schedule_step`` parks the
step's ``(time_ns, seq)`` in the CPU's one-step slot, and the engine
runs it in place, merged with the event heap in ``(time, seq)`` order.
That must change host cost only.  Each scenario here runs twice: with
slots, as shipped, and with every step pushed on the heap as an
``Event`` under the seq the slot would have reserved (the reference is
local to this test).  The two runs must agree on every trace record
(all categories, detail included), on the ``(now_ns, cpu, lwp)`` of
every ``CPU._step`` call, on events fired, the clock, and each CPU's
busy, user and kernel time.
"""

import pytest

from repro.api import Simulator
from repro.explore.corpus import BUGGY, CLEAN
from repro.explore.explorer import default_plan_dicts, run_one
from repro.hw.cpu import CPU
from repro.load.bakeoff import ARCHITECTURES, run_arch
from repro.sim.events import EventQueue
from repro.workloads import window_system

_PLANS = default_plan_dicts(3)
_CORPUS = {**BUGGY, **CLEAN}

SPEC = {"kind": "poisson", "params": {"rate_per_sec": 1_000.0},
        "clients": 60, "seed": 0, "start_usec": 1_000.0}


def _corpus_run(name):
    entry = _CORPUS[name]
    factory = entry[0] if isinstance(entry, tuple) else entry
    # Spread the corpus over the three pinned schedule plans.
    k = sorted(_CORPUS).index(name) % len(_PLANS)
    result = run_one(factory, program=name, run_index=k, seed=k,
                     schedule_dict=_PLANS[k])
    return (result.digest, result.hang, result.error, result.events,
            result.points_seen, result.preemptions,
            sorted(map(str, result.findings)))


def _bakeoff_run(arch):
    return run_arch(arch, SPEC, with_digest=True)


def _window_system_run(ncpus, seed=3):
    main, results = window_system.build(n_widgets=20, n_events=200,
                                        seed=seed)
    sim = Simulator(ncpus=ncpus, seed=seed)
    sim.spawn(main, name="winsys")
    sim.run()
    return dict(results)


SCENARIOS = (
    [pytest.param(_corpus_run, name, id=f"corpus-{name}")
     for name in sorted(_CORPUS)]
    + [pytest.param(_bakeoff_run, arch, id=f"bakeoff-{arch}")
       for arch in ARCHITECTURES]
    + [pytest.param(_window_system_run, 2, id="window_system"),
       pytest.param(_window_system_run, 4, id="window_system-4cpu")])


def _record(record):
    return (record.time_ns, record.category, record.event, record.subject,
            sorted((k, str(v)) for k, v in record.detail.items()))


def _observe(monkeypatch, scenario, arg):
    """Run ``scenario(arg)`` with full tracing on every simulator it
    builds; return everything the two modes must agree on, and the
    number of events pushed on any queue."""
    sims, steps, pushes = [], [], [0]
    sim_init = Simulator.__init__
    step = CPU._step
    push = EventQueue.push

    def traced_init(self, *args, **kwargs):
        kwargs.update(trace=True, trace_categories=None, trace_store=True)
        sim_init(self, *args, **kwargs)
        sims.append(self)

    def logged_step(cpu):
        lwp = cpu.lwp
        steps.append((cpu._clock.now_ns, cpu.index,
                      lwp.name if lwp is not None else None))
        step(cpu)

    def counted_push(queue, *args, **kwargs):
        pushes[0] += 1
        return push(queue, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Simulator, "__init__", traced_init)
        m.setattr(CPU, "_step", logged_step)
        m.setattr(EventQueue, "push", counted_push)
        result = scenario(arg)
    per_sim = [
        ([_record(r) for r in sim.tracer.records], sim.engine.events_fired,
         sim.engine.now_ns,
         [(c.busy_ns, c.user_ns, c.kernel_ns, c.dispatch_count)
          for c in sim.machine.cpus])
        for sim in sims]
    return result, per_sim, steps, pushes[0]


def _heap_only(monkeypatch):
    """The reference: every step is an ``Event`` on the heap, pushed
    under the seq ``_schedule_step`` would reserve, and a cancelled step
    is a cancelled event.  The slot stays empty.  Returns a one-item
    list counting the steps scheduled."""
    scheduled = [0]

    def cancel_step(cpu):
        cpu._next_step = None
        ev = cpu.__dict__.pop("_step_event", None)
        if ev is not None:
            cpu.engine.cancel(ev)

    def schedule_step(cpu, delay_ns):
        scheduled[0] += 1
        cancel_step(cpu)
        cpu._step_event = cpu._queue.push(cpu._clock.now_ns + delay_ns,
                                          cpu._step)

    monkeypatch.setattr(CPU, "_schedule_step", schedule_step)
    monkeypatch.setattr(CPU, "_cancel_step", cancel_step)
    return scheduled


@pytest.mark.parametrize("scenario,arg", SCENARIOS)
def test_inline_matches_heap_path(monkeypatch, scenario, arg):
    slots = _observe(monkeypatch, scenario, arg)
    with monkeypatch.context() as m:
        scheduled = _heap_only(m)
        heap = _observe(m, scenario, arg)
    result, per_sim, steps, slot_pushes = slots
    h_result, h_per_sim, h_steps, heap_pushes = heap
    assert per_sim and len(per_sim) == len(h_per_sim)
    for (recs, fired, now, cpus), (h_recs, h_fired, h_now, h_cpus) in zip(
            per_sim, h_per_sim):
        assert recs == h_recs
        assert (fired, now, cpus) == (h_fired, h_now, h_cpus)
    assert steps == h_steps
    assert result == h_result
    # Every step went through the heap in the reference and none did
    # with slots; otherwise this test compares a path with itself.
    assert scheduled[0] > 0
    assert heap_pushes - slot_pushes == scheduled[0]
