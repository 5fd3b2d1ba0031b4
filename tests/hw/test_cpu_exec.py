"""Tests for the CPU executor: effect interpretation, time charging,
kernel boundary costs, preemption mechanics.

These run real (tiny) programs through a full Simulator and assert on
timing and accounting, since the CPU cannot meaningfully run without a
kernel behind it.
"""

import pytest

from repro.api import Simulator
from repro.errors import SimulationError
from repro.hw.cpu import CPU
from repro.hw.isa import Block, Charge, GetContext, Setjmp, Longjmp, Syscall
from repro.sim.clock import usec
from repro.sim.trace import trace_digest
from tests.conftest import run_program


class TestCharging:
    def test_charge_advances_time(self):
        def main():
            yield Charge(usec(100))

        sim, _ = run_program(main)
        # Boot dispatch + 100us compute.
        assert sim.now_usec >= 100

    def test_charge_accounted_to_lwp_and_cpu(self):
        def main():
            yield Charge(usec(250))

        sim, proc = run_program(main)
        cpu = sim.machine.cpus[0]
        assert cpu.user_ns >= usec(250)
        assert proc.rusage()["user_ns"] >= usec(250)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Charge(-5)

    def test_zero_charge_is_free(self):
        def main():
            before = yield Syscall("gettimeofday")
            yield Charge(0)
            after = yield Syscall("gettimeofday")
            deltas.append(after - before)

        deltas = []
        run_program(main)
        # Only the two gettimeofday syscalls cost anything.
        assert deltas[0] == usec(15 + 5 + 15)


class TestGetContext:
    def test_context_fields(self):
        seen = {}

        def main():
            ctx = yield GetContext()
            seen["pid"] = ctx.process.pid
            seen["thread"] = ctx.thread
            seen["lwp"] = ctx.lwp
            seen["kernel"] = ctx.kernel

        sim, proc = run_program(main)
        assert seen["pid"] == proc.pid
        assert seen["lwp"].process is proc
        assert seen["thread"].thread_id == 1
        assert seen["kernel"] is sim.kernel


class TestSetjmpLongjmp:
    def test_pair_costs_59us(self):
        def main():
            t0 = yield Syscall("gettimeofday")
            token = yield Setjmp()
            yield Longjmp(token)
            t1 = yield Syscall("gettimeofday")
            times.append((t1 - t0) / 1000)

        times = []
        run_program(main)
        timer_overhead = 15 + 5 + 15
        assert times[0] == pytest.approx(59 + timer_overhead)


class TestSyscallBoundary:
    def test_entry_exit_charged_as_kernel_time(self):
        def main():
            yield Syscall("getpid")

        sim, _ = run_program(main)
        assert sim.machine.cpus[0].kernel_ns >= usec(35)

    def test_unknown_syscall_is_enosys(self):
        from repro.errors import Errno, SyscallError

        caught = []

        def main():
            try:
                yield Syscall("frobnicate")
            except SyscallError as err:
                caught.append(err.errno)

        run_program(main)
        assert caught == [Errno.ENOSYS]

    def test_syscall_counted(self):
        def main():
            yield Syscall("getpid")
            yield Syscall("getpid")

        sim, _ = run_program(main)
        assert sim.syscall_counts()["getpid"] == 2


class TestBlockEffectRules:
    def test_user_mode_block_is_rejected(self):
        from repro.hw.isa import WaitChannel

        def main():
            yield Block(WaitChannel("nope"))

        with pytest.raises(SimulationError, match="user mode"):
            run_program(main)


class TestMultiCpu:
    def test_two_processes_run_in_parallel(self):
        """On 2 CPUs, two compute-bound processes overlap, halving
        wall-clock versus serial execution."""
        def burner():
            yield Charge(usec(10_000))

        sim = Simulator(ncpus=2)
        sim.spawn(burner)
        sim.spawn(burner)
        sim.run()
        assert sim.now_usec < 10_000 * 1.5  # clearly overlapped

    def test_uniprocessor_serializes(self):
        def burner():
            yield Charge(usec(10_000))

        sim = Simulator(ncpus=1)
        sim.spawn(burner)
        sim.spawn(burner)
        sim.run()
        assert sim.now_usec >= 20_000

    def test_utilization_report(self):
        def burner():
            yield Charge(usec(1_000))

        sim = Simulator(ncpus=2)
        sim.spawn(burner)
        sim.run()
        util = sim.utilization()
        assert util["busy_ns"] > 0
        assert 0 < util["utilization"] <= 1


class TestRunLimitsWithInlineSteps:
    """A CPU runs most steps in place rather than through the event
    queue; the engine's limits and (time, seq) order must not notice."""

    def test_max_events_exact_on_a_zero_cost_loop(self):
        def main():
            while True:
                yield GetContext()

        sim = Simulator()
        sim.spawn(main)
        with pytest.raises(SimulationError,
                           match=r"max_events=5000 exhausted at t=80\.0us"):
            sim.run(max_events=5_000)
        assert sim.engine.events_fired == 5_000

    @staticmethod
    def _window_system():
        from repro.workloads import window_system

        main, _ = window_system.build(n_widgets=10, n_events=60, seed=2)
        sim = Simulator(ncpus=2, seed=2, trace=True)
        sim.spawn(main)
        return sim

    @staticmethod
    def _compute_loop():
        # One CPU and nothing else queued: every step could run in place,
        # so only until_ns stops the loop.
        def main():
            for _ in range(40):
                yield Charge(usec(3))
                yield GetContext()

        sim = Simulator(trace=True)
        sim.spawn(main)
        return sim

    @pytest.mark.parametrize("setup,splits", [
        ("_window_system", (1_000.0, 2_507.5, 4_100.003)),
        ("_compute_loop", (200.0, 401.5, 650.0))])
    def test_until_then_run_equals_one_run(self, setup, splits):
        def run(until_usec=None):
            sim = getattr(self, setup)()
            fired = 0
            if until_usec is not None:
                fired += sim.run(until_usec=until_usec)
                assert sim.now_usec == until_usec
            fired += sim.run()
            return (trace_digest(sim.tracer.records), fired,
                    sim.engine.events_fired, sim.engine.now_ns)

        whole = run()
        for until_usec in splits:
            assert run(until_usec) == whole

    def test_cancelled_step_held_in_place_never_runs(self, monkeypatch):
        log, armed = [], []
        schedule_step = CPU._schedule_step

        def schedule_then_cancel(cpu, delay_ns):
            schedule_step(cpu, delay_ns)
            if armed:
                cpu._cancel_step()

        monkeypatch.setattr(CPU, "_schedule_step", schedule_then_cancel)

        def main():
            log.append("before")
            armed.append(True)
            yield GetContext()
            log.append("after")

        sim = Simulator()
        sim.spawn(main)
        # The LWP still holds the CPU, so the clock keeps ticking: bound
        # the run in time.
        sim.run(until_usec=50_000)
        assert log == ["before"]

    @pytest.mark.parametrize("push_first,order", [
        (True, ["event", "step"]), (False, ["step", "event"])])
    def test_same_time_event_keeps_seq_order(self, monkeypatch,
                                             push_first, order):
        sim = Simulator()
        log, armed = [], []
        schedule_step = CPU._schedule_step

        def schedule_with_tie(cpu, delay_ns):
            # One call only: queue an event at the step's own time just
            # before or just after the step reserves its seq.
            tie = bool(armed)
            armed.clear()
            if tie and push_first:
                sim.engine.call_after(delay_ns, lambda: log.append("event"))
            schedule_step(cpu, delay_ns)
            if tie and not push_first:
                sim.engine.call_after(delay_ns, lambda: log.append("event"))

        monkeypatch.setattr(CPU, "_schedule_step", schedule_with_tie)

        def main():
            yield Charge(usec(1))
            armed.append(True)
            yield Charge(usec(5))
            log.append("step")

        sim.spawn(main)
        sim.run()
        assert log == order
