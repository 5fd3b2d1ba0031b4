"""Exactness of the per-LWP CPU-time watchers.

The other timer tests assert that ``SIGVTALRM``, ``SIGPROF`` and
``SIGXCPU`` fire.  These pin *when*: the virtual time each signal's
handler starts, the exact profiling-buffer contents, and every LWP's
``user_ns``/``system_ns`` at the end of the run.  Any change to how the
CPU charges time, or to when a watcher looks at the charge, moves one of
these numbers.
"""

from repro import threads
from repro.api import Simulator
from repro.hw.isa import Charge, GetContext
from repro.kernel.signals import Sig
from repro.kernel.syscalls.misc_calls import RLIMIT_CPU
from repro.kernel.syscalls.time_calls import ITIMER_PROF, ITIMER_VIRTUAL
from repro.runtime import unistd
from repro.sim.clock import usec

BOUND = threads.THREAD_WAIT | threads.THREAD_BIND_LWP


def _run(main, ncpus=1):
    """Run ``main``; return the signal log and per-LWP CPU usage."""
    sim = Simulator(ncpus=ncpus, seed=0)
    log = []

    def handler(sig):
        ctx = yield GetContext()
        log.append((Sig(sig).name, ctx.lwp.name, ctx.engine.now_ns))
        yield Charge(usec(1))

    proc = sim.spawn(main, handler, log)
    sim.run()
    usage = {lwp.name: (lwp.user_ns, lwp.system_ns)
             for lwp in proc.lwps.values()}
    return log, usage


def test_virtual_and_prof_timer_delivery_times():
    def main(handler, log):
        yield from unistd.sigaction(int(Sig.SIGVTALRM), handler)
        yield from unistd.sigaction(int(Sig.SIGPROF), handler)
        yield from unistd.setitimer(ITIMER_VIRTUAL, usec(3_000))
        yield from unistd.setitimer(ITIMER_PROF, usec(1_000))
        for _ in range(5):
            yield Charge(usec(700))
            yield from unistd.getpid()
        yield from unistd.sleep_usec(100)

    log, usage = _run(main)
    assert log == [("SIGPROF", "lwp-1.1", 1_655_000),
                   ("SIGVTALRM", "lwp-1.1", 3_891_000)]
    assert usage == {"lwp-1.1": (3_682_000, 1_085_000)}


def test_profil_buffer_inherited_by_created_lwp():
    got = {}

    def child(_):
        yield Charge(usec(1_500))
        yield from unistd.getpid()
        yield Charge(usec(250))

    def main(handler, log):
        buf = yield from unistd.profil()
        yield Charge(usec(1_000))
        tid = yield from threads.thread_create(child, None, flags=BOUND)
        yield Charge(usec(400))
        yield from threads.thread_wait(tid)
        got["samples"] = dict(buf.samples)
        got["total"] = buf.total_ns

    log, usage = _run(main, ncpus=2)
    assert log == []
    # The child LWP (running t2) inherited the buffer at lwp_create.
    assert got == {"samples": {"pid1-main": 1_589_000, "t2": 1_750_000,
                               "lwp-1.1-idle": 157_000},
                   "total": 3_496_000}
    assert usage == {"lwp-1.1": (1_746_000, 3_235_000),
                     "lwp-1.2": (1_750_000, 512_000)}


def test_rlimit_cpu_set_while_sibling_mid_charge():
    got = {}

    def burner(_):
        ctx = yield GetContext()
        got["burn_from"] = ctx.engine.now_ns
        yield Charge(usec(6_000))
        yield from unistd.getpid()
        yield Charge(usec(500))
        yield from unistd.getpid()

    def main(handler, log):
        yield from unistd.sigaction(int(Sig.SIGXCPU), handler)
        tid = yield from threads.thread_create(burner, None, flags=BOUND)
        # The sibling is inside its 6 ms charge when the limit lands.
        yield from unistd.sleep_usec(2_000)
        yield from unistd.setrlimit(RLIMIT_CPU, usec(1_500))
        ctx = yield GetContext()
        got["limit_at"] = ctx.engine.now_ns
        yield Charge(usec(300))
        yield from unistd.getpid()
        yield from threads.thread_wait(tid)

    log, usage = _run(main, ncpus=2)
    assert got["burn_from"] < got["limit_at"] < got["burn_from"] + usec(6_000)
    assert got == {"burn_from": 2_507_000, "limit_at": 4_623_000}
    assert log == [("SIGXCPU", "lwp-1.1", 4_592_000)]
    assert usage == {"lwp-1.1": (737_000, 3_450_000),
                     "lwp-1.2": (6_500_000, 547_000)}


def test_exit_mid_step_charges_no_lwp():
    # A process that SIGKILLs itself loses its CPU inside the kill
    # system call; the CPU is handed straight to the waiting process.
    # The syscall exit that follows still costs CPU time, but it belongs
    # to neither LWP: not the dead one, not the one just dispatched.
    sim = Simulator(ncpus=1, seed=0)

    def victim():
        yield Charge(usec(200))
        pid = yield from unistd.getpid()
        yield from unistd.kill(pid, int(Sig.SIGKILL))

    def bystander():
        yield Charge(usec(500))
        yield from unistd.getpid()

    procs = [sim.spawn(victim), sim.spawn(bystander)]
    sim.run()
    lwps = [lwp for proc in procs for lwp in proc.lwps.values()]
    usage = {lwp.name: (lwp.user_ns, lwp.system_ns) for lwp in lwps}
    assert usage == {"lwp-1.1": (200_000, 165_000),
                     "lwp-2.1": (500_000, 660_000)}
    cpu = sim.machine.cpus[0]
    uncharged = cpu.busy_ns - sum(lwp.cpu_ns for lwp in lwps)
    assert uncharged == sim.costs.syscall_exit
