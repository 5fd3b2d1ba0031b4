"""Differential test of inline stepping.

A CPU's step loop (``CPU._run_steps``) runs the CPU's next step in place
while it sorts strictly before every queued event, instead of pushing it
on the event queue.  That must change host cost only.  Each scenario
here runs twice: inline, as shipped, and with every step forced through
the heap, by making the loop's ``_in_loop`` flag read False so that
``_schedule_step`` always pushes.  The two runs must agree on every
trace record (all categories, detail included), on the
``(now_ns, cpu, lwp)`` of every ``CPU._step`` call, on events fired and
on each CPU's busy, user and kernel time.
"""

import pytest

from repro.api import Simulator
from repro.explore.corpus import BUGGY, CLEAN
from repro.explore.explorer import default_plan_dicts, run_one
from repro.hw.cpu import CPU
from repro.load.bakeoff import ARCHITECTURES, run_arch
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


def _window_system_run(seed):
    main, results = window_system.build(n_widgets=20, n_events=200,
                                        seed=seed)
    sim = Simulator(ncpus=2, seed=seed)
    sim.spawn(main, name="winsys")
    sim.run()
    return dict(results)


SCENARIOS = (
    [pytest.param(_corpus_run, name, id=f"corpus-{name}")
     for name in sorted(_CORPUS)]
    + [pytest.param(_bakeoff_run, arch, id=f"bakeoff-{arch}")
       for arch in ARCHITECTURES]
    + [pytest.param(_window_system_run, 3, id="window_system")])


def _record(record):
    return (record.time_ns, record.category, record.event, record.subject,
            sorted((k, str(v)) for k, v in record.detail.items()))


def _observe(monkeypatch, scenario, arg):
    """Run ``scenario(arg)`` with full tracing on every simulator it
    builds; return everything the two modes must agree on."""
    sims, steps, pushes = [], [], [0]
    sim_init = Simulator.__init__
    step = CPU._step
    push_step = CPU._push_step

    def traced_init(self, *args, **kwargs):
        kwargs.update(trace=True, trace_categories=None, trace_store=True)
        sim_init(self, *args, **kwargs)
        sims.append(self)

    def logged_step(cpu):
        lwp = cpu.lwp
        steps.append((cpu._clock.now_ns, cpu.index,
                      lwp.name if lwp is not None else None))
        step(cpu)

    def counted_push(cpu, t, seq):
        pushes[0] += 1
        push_step(cpu, t, seq)

    with monkeypatch.context() as m:
        m.setattr(Simulator, "__init__", traced_init)
        m.setattr(CPU, "_step", logged_step)
        m.setattr(CPU, "_push_step", counted_push)
        result = scenario(arg)
    per_sim = [
        ([_record(r) for r in sim.tracer.records], sim.engine.events_fired,
         sim.engine.now_ns,
         [(c.busy_ns, c.user_ns, c.kernel_ns, c.dispatch_count)
          for c in sim.machine.cpus])
        for sim in sims]
    return result, per_sim, steps, pushes[0]


def _heap_only(monkeypatch):
    """Force the heap path: the step loop's flag never reads True."""
    monkeypatch.setattr(CPU, "_in_loop",
                        property(lambda cpu: False, lambda cpu, v: None),
                        raising=False)


@pytest.mark.parametrize("scenario,arg", SCENARIOS)
def test_inline_matches_heap_path(monkeypatch, scenario, arg):
    inline = _observe(monkeypatch, scenario, arg)
    with monkeypatch.context() as m:
        _heap_only(m)
        heap = _observe(m, scenario, arg)
    result, per_sim, steps, inline_pushes = inline
    h_result, h_per_sim, h_steps, heap_pushes = heap
    assert per_sim and len(per_sim) == len(h_per_sim)
    for (recs, fired, now, cpus), (h_recs, h_fired, h_now, h_cpus) in zip(
            per_sim, h_per_sim):
        assert recs == h_recs
        assert (fired, now, cpus) == (h_fired, h_now, h_cpus)
    assert steps == h_steps
    assert result == h_result
    # The inline run must have kept some steps off the heap, or this
    # test compares the heap path with itself.
    assert inline_pushes < heap_pushes
