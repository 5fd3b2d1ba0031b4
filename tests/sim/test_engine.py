"""Tests for the discrete-event engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_call_after_advances_clock(self):
        eng = Engine()
        seen = []
        eng.call_after(1_000, lambda: seen.append(eng.now_ns))
        eng.run()
        assert seen == [1_000]

    def test_call_at_absolute(self):
        eng = Engine()
        seen = []
        eng.call_at(500, lambda: seen.append(True))
        eng.run()
        assert seen and eng.now_ns == 500

    def test_cannot_schedule_in_past(self):
        eng = Engine()
        eng.call_after(100, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(50, lambda: None)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.call_after(-1, lambda: None)

    def test_events_fired_counter(self):
        eng = Engine()
        for i in range(5):
            eng.call_after(i, lambda: None)
        assert eng.run() == 5
        assert eng.events_fired == 5

    def test_cascading_events(self):
        eng = Engine()
        seen = []

        def first():
            seen.append("first")
            eng.call_after(10, lambda: seen.append("second"))

        eng.call_after(5, first)
        eng.run()
        assert seen == ["first", "second"]
        assert eng.now_ns == 15


class TestRunLimits:
    def test_until_stops_before_later_events(self):
        eng = Engine()
        seen = []
        eng.call_after(10, lambda: seen.append("early"))
        eng.call_after(1_000, lambda: seen.append("late"))
        eng.run(until_ns=100)
        assert seen == ["early"]
        assert eng.now_ns == 100
        eng.run()
        assert seen == ["early", "late"]

    def test_run_for_relative_window(self):
        eng = Engine()
        seen = []
        eng.call_after(50, lambda: seen.append(1))
        eng.run_for(60)
        assert seen == [1]

    def test_max_events_guard(self):
        eng = Engine()

        def rearm():
            eng.call_after(1, rearm)

        eng.call_after(1, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            eng.run(max_events=100)

    def test_max_events_fires_exactly_that_many(self):
        eng = Engine()

        def rearm():
            eng.call_after(1, rearm)

        eng.call_after(1, rearm)
        with pytest.raises(SimulationError,
                           match=r"max_events=100 exhausted at t=0\.1us"):
            eng.run(max_events=100)
        assert eng.events_fired == 100
        assert eng.now_ns == 100

    def test_until_then_run_equals_one_run(self):
        def schedule(eng, seen):
            for t in (5, 10, 10, 40, 90):
                eng.call_at(t, lambda t=t: seen.append((t, eng.now_ns)))

        one, seen_one = Engine(), []
        schedule(one, seen_one)
        fired_one = one.run()
        split, seen_split = Engine(), []
        schedule(split, seen_split)
        fired_split = split.run(until_ns=10) + split.run(until_ns=39)
        assert split.now_ns == 39
        fired_split += split.run()
        assert seen_split == seen_one
        assert fired_split == fired_one == split.events_fired == 5
        assert split.now_ns == one.now_ns == 90

    def test_event_that_raises_is_not_counted(self):
        eng = Engine()
        eng.call_after(1, lambda: None)

        def boom():
            raise RuntimeError("boom")

        eng.call_after(2, boom)
        with pytest.raises(RuntimeError):
            eng.run()
        assert eng.events_fired == 1

    def test_engine_not_reentrant(self):
        eng = Engine()

        def nested():
            with pytest.raises(SimulationError):
                eng.run()

        eng.call_after(1, nested)
        eng.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        seen = []
        ev = eng.call_after(10, lambda: seen.append(1))
        eng.cancel(ev)
        eng.run()
        assert seen == []

    def test_double_cancel_safe(self):
        eng = Engine()
        ev = eng.call_after(10, lambda: None)
        eng.cancel(ev)
        eng.cancel(ev)
        eng.run()

    def test_cancel_from_within_running_event(self):
        eng = Engine()
        seen = []
        victim = eng.call_after(20, lambda: seen.append("victim"))
        eng.call_after(10, lambda: eng.cancel(victim))
        assert eng.run() == 1
        assert seen == []

    def test_cancel_all_pending_drains_clean(self):
        # A queue holding only cancelled events must fire nothing and
        # must not advance the clock: it drains exactly like an empty
        # queue (until_ns moves the clock only when a live event lies
        # beyond it).
        eng = Engine()
        for t in (10, 20):
            eng.cancel(eng.call_after(t, lambda: None))
        eng.idle_check = lambda: None
        assert eng.run(until_ns=50) == 0
        assert eng.now_ns == 0

    def test_until_exact_event_time_fires(self):
        eng = Engine()
        seen = []
        eng.call_after(100, lambda: seen.append(1))
        eng.run(until_ns=100)
        assert seen == [1]

    def test_zero_delay_event_fires_now(self):
        eng = Engine()
        eng.call_after(5, lambda: None)
        eng.run()
        seen = []
        eng.call_after(0, lambda: seen.append(eng.now_ns))
        eng.run()
        assert seen == [5]


class TestDeadlockProbe:
    def test_idle_check_raises_on_complaint(self):
        eng = Engine()
        eng.idle_check = lambda: "stuck entities"
        with pytest.raises(DeadlockError, match="stuck"):
            eng.run()

    def test_idle_check_quiet_when_none(self):
        eng = Engine()
        eng.idle_check = lambda: None
        eng.run()  # no raise

    def test_check_deadlock_false_skips_probe(self):
        eng = Engine()
        eng.idle_check = lambda: "stuck"
        eng.run(check_deadlock=False)  # no raise


class Stepper:
    """A minimal step source: a ``_next_step`` slot and a ``_step()``.

    Each step logs ``(name, now_ns)`` and runs the next action from
    ``script``: a delay to schedule the following step, or a callable
    run in its place (it may raise or schedule by itself).
    """

    def __init__(self, eng, name, log, script=()):
        self.eng, self.name, self.log = eng, name, log
        self.script = list(script)
        self._next_step = None
        eng.step_sources.append(self)

    def schedule(self, delay_ns):
        q = self.eng.queue
        seq = q._seq
        q._seq = seq + 1
        self._next_step = (self.eng.now_ns + delay_ns, seq)

    def _step(self):
        self.log.append((self.name, self.eng.now_ns))
        if self.script:
            action = self.script.pop(0)
            if callable(action):
                action()
            else:
                self.schedule(action)


class TestStepSlots:
    @pytest.mark.parametrize("event_first,order", [
        (True, ["event", "step"]), (False, ["step", "event"])])
    def test_slot_and_event_at_equal_time_keep_seq_order(self, event_first,
                                                        order):
        eng, log = Engine(), []
        cpu = Stepper(eng, "step", log)
        if event_first:
            eng.call_at(10, lambda: log.append(("event", eng.now_ns)))
        cpu.schedule(10)
        if not event_first:
            eng.call_at(10, lambda: log.append(("event", eng.now_ns)))
        assert eng.run() == 2
        assert log == [(name, 10) for name in order]

    def test_two_slots_at_equal_time_keep_seq_order(self):
        eng, log = Engine(), []
        late = Stepper(eng, "late", log)     # registered first
        early = Stepper(eng, "early", log)
        early.schedule(5)
        late.schedule(5)
        eng.run()
        assert log == [("early", 5), ("late", 5)]

    def test_same_source_runs_until_another_sorts_first(self):
        eng, log = Engine(), []
        a = Stepper(eng, "a", log, script=[1, 1, 1])
        b = Stepper(eng, "b", log, script=[10])
        a.schedule(0)
        b.schedule(2)
        eng.call_at(1, lambda: log.append(("event", eng.now_ns)))
        assert eng.run() == 7
        # At t=2, b's step was reserved before a's, so it goes first.
        assert log == [("a", 0), ("event", 1), ("a", 1), ("b", 2),
                       ("a", 2), ("a", 3), ("b", 12)]

    def _parked(self, seen):
        eng = Engine()
        cpu = Stepper(eng, "cpu", seen, script=[7] * 9)
        cpu.schedule(3)
        eng.call_at(20, lambda: seen.append(("event", eng.now_ns)))
        return eng

    def test_slot_past_until_then_run_equals_one_run(self):
        seen_one = []
        one = self._parked(seen_one)
        fired_one = one.run()
        seen_split = []
        split = self._parked(seen_split)
        fired_split = split.run(until_ns=16)
        # The slot (at 17) is parked past the horizon: the clock stops
        # at until_ns and the step runs in the next call.
        assert split.now_ns == 16
        assert seen_split == [("cpu", 3), ("cpu", 10)]
        fired_split += split.run(until_ns=20) + split.run()
        assert seen_split == seen_one
        assert fired_split == fired_one == split.events_fired == 11
        assert split.now_ns == one.now_ns == 66

    def test_max_events_counts_steps_exactly(self):
        eng, log = Engine(), []
        cpu = Stepper(eng, "cpu", log, script=[1] * 1_000)
        cpu.schedule(0)
        with pytest.raises(SimulationError,
                           match=r"max_events=100 exhausted at t=0\.1us"):
            eng.run(max_events=100)
        assert eng.events_fired == len(log) == 100
        assert eng.now_ns == 99

    def test_raising_step_is_not_counted(self):
        def boom():
            raise RuntimeError("boom")

        eng, log = Engine(), []
        cpu = Stepper(eng, "cpu", log, script=[1, boom])
        cpu.schedule(0)
        with pytest.raises(RuntimeError):
            eng.run()
        assert len(log) == 2
        assert eng.events_fired == 1

    def test_cleared_slot_never_runs(self):
        eng, log = Engine(), []
        cpu = Stepper(eng, "cpu", log)
        cpu.schedule(10)

        def clear():
            cpu._next_step = None

        eng.call_at(5, clear)
        assert eng.run() == 1
        assert log == []
        assert eng.now_ns == 5

    def test_deadlock_check_waits_for_every_slot(self):
        eng, log, probes = Engine(), [], []
        a = Stepper(eng, "a", log, script=[4])
        b = Stepper(eng, "b", log)
        a.schedule(0)
        b.schedule(3)

        def idle_check():
            probes.append(list(log))
            return "stuck"

        eng.idle_check = idle_check
        with pytest.raises(DeadlockError, match="stuck"):
            eng.run()
        assert probes == [[("a", 0), ("b", 3), ("a", 4)]]


class TestDeterminism:
    def test_same_seed_same_order(self):
        def trace_run():
            eng = Engine(seed=7)
            seen = []
            for i in range(20):
                eng.call_after(eng.rng.randint("t", 0, 5),
                               lambda i=i: seen.append(i))
            eng.run()
            return seen

        assert trace_run() == trace_run()

    def test_rng_streams_independent(self):
        eng = Engine(seed=1)
        a1 = [eng.rng.stream("a").random() for _ in range(3)]
        eng2 = Engine(seed=1)
        # Drawing from "b" first must not perturb "a".
        eng2.rng.stream("b").random()
        a2 = [eng2.rng.stream("a").random() for _ in range(3)]
        assert a1 == a2
