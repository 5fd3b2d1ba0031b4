"""White-box tests for the ThreadsLibrary scheduler internals."""

import pytest

from repro.hw.isa import GetContext
from repro.runtime import libc, unistd
from repro.threads.scheduler import (KEEP_VALUE, NO_SLEEP, ThreadsLibrary,
                                     _ThreadRunQueue)
from repro.threads.thread import Thread, ThreadState
from repro import threads
from tests.conftest import run_program


class FakeThread:
    def __init__(self, prio):
        self.priority = prio


class TestThreadRunQueue:
    def test_priority_order(self):
        q = _ThreadRunQueue()
        lo, hi = FakeThread(5), FakeThread(50)
        q.insert(lo)
        q.insert(hi)
        assert q.pop_best() is hi
        assert q.pop_best() is lo
        assert q.pop_best() is None

    def test_fifo_within_priority(self):
        q = _ThreadRunQueue()
        a, b = FakeThread(10), FakeThread(10)
        q.insert(a)
        q.insert(b)
        assert q.pop_best() is a

    def test_front_insert(self):
        q = _ThreadRunQueue()
        a, b = FakeThread(10), FakeThread(10)
        q.insert(a)
        q.insert(b, front=True)
        assert q.pop_best() is b

    def test_remove(self):
        q = _ThreadRunQueue()
        a = FakeThread(10)
        q.insert(a)
        assert a in q
        assert q.remove(a)
        assert not q.remove(a)
        assert len(q) == 0


class TestLibraryBookkeeping:
    def _lib(self):
        holder = {}

        def main():
            ctx = yield GetContext()
            holder["lib"] = ctx.process.threadlib
            holder["ctx"] = ctx

        run_program(main)
        return holder["lib"]

    def test_id_recycling_freelist(self):
        lib = self._lib()
        a = lib.new_thread_id()
        b = lib.new_thread_id()
        assert a != b

        class T:
            thread_id = a
        lib.threads[a] = T()
        lib.retire_id(T())
        assert lib.new_thread_id() == a  # recycled

    def test_live_count_matches_a_scan(self, monkeypatch):
        # live_count() is a kept count, not a scan: after every change
        # to the thread table or to a thread's exited flag it must
        # equal the scan, through create, exit, crash reclaim and fork1.
        checks, libs = [0], []

        def scanned(lib):
            return sum(1 for t in lib.threads.values() if not t.exited)

        def checked(method):
            def wrapper(lib, thread):
                method(lib, thread)
                assert lib.live_count() == scanned(lib)
                checks[0] += 1
                if lib not in libs:
                    libs.append(lib)
            return wrapper

        for name in ("add_thread", "mark_exited", "retire_id"):
            monkeypatch.setattr(ThreadsLibrary, name,
                                checked(getattr(ThreadsLibrary, name)))

        def worker(_):
            yield from libc.compute(100.0)

        def sleeper(_):
            while True:
                yield from libc.compute(500.0)

        def child_main():
            tid = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)

        def main():
            ctx = yield GetContext()
            waited = []
            for flags in (0, threads.THREAD_WAIT,
                          threads.THREAD_WAIT | threads.THREAD_BIND_LWP):
                tid = yield from threads.thread_create(worker, None,
                                                       flags=flags)
                if flags & threads.THREAD_WAIT:
                    waited.append(tid)
            for tid in waited:
                yield from threads.thread_wait(tid)
            tid = yield from threads.thread_create(
                sleeper, None, flags=threads.THREAD_BIND_LWP)
            victim = ctx.process.threadlib.get_thread(tid)
            yield from libc.compute(1_000.0)
            ctx.kernel.crash_lwp(victim.lwp)
            yield from libc.compute(1_000.0)
            assert victim.crashed
            pid = yield from unistd.fork1(child_main)
            yield from unistd.waitpid(pid)

        run_program(main, ncpus=2)
        assert len(libs) == 2          # the parent's and the child's
        assert checks[0] >= 15

    def test_retire_unknown_id_harmless(self):
        lib = self._lib()

        class T:
            thread_id = 999
        lib.retire_id(T())  # no KeyError, no freelist pollution
        assert 999 not in lib._free_ids

    def test_snapshot_shape(self):
        lib = self._lib()
        snap = lib.snapshot()
        for key in ("threads", "live", "runq", "pool_lwps", "parked",
                    "user_switches", "stack_cache"):
            assert key in snap


class TestWakeSemantics:
    def test_wake_from_queue_respects_count(self):
        woken = []

        def sleeper(args):
            q, tag = args
            from repro.hw.isa import GetContext as GC
            ctx = yield GC()
            lib = ctx.process.threadlib
            yield from lib.block_current_on(q)
            woken.append(tag)

        def main():
            ctx = yield GetContext()
            lib = ctx.process.threadlib
            q = []
            tids = []
            for tag in range(3):
                tid = yield from threads.thread_create(
                    sleeper, (q, tag), flags=threads.THREAD_WAIT)
                tids.append(tid)
                yield from threads.thread_yield()
            n = yield from lib.wake_from_queue(q, n=2)
            assert n == 2
            yield from threads.thread_yield()
            assert len(woken) == 2
            yield from lib.wake_from_queue(q, n=5)
            for tid in tids:
                yield from threads.thread_wait(tid)

        run_program(main)
        assert sorted(woken) == [0, 1, 2]

    def test_guard_veto_returns_no_sleep(self):
        outcomes = []

        def main():
            ctx = yield GetContext()
            lib = ctx.process.threadlib
            q = []
            result = yield from lib.block_current_on(
                q, guard=lambda: False)
            outcomes.append(result is NO_SLEEP)
            assert q == []  # never enqueued

        run_program(main)
        assert outcomes == [True]

    def test_keep_value_preserves_stored_resume(self):
        """thread_continue's KEEP sentinel must not clobber a wake value
        stored while the thread was stopped."""
        got = []

        def sleeper(q):
            from repro.hw.isa import GetContext as GC
            ctx = yield GC()
            lib = ctx.process.threadlib
            value = yield from lib.block_current_on(q)
            got.append(value)

        def main():
            ctx = yield GetContext()
            lib = ctx.process.threadlib
            q = []
            tid = yield from threads.thread_create(
                sleeper, q, flags=threads.THREAD_WAIT)
            yield from threads.thread_yield()
            yield from threads.thread_stop(tid)
            # Wake with a payload while stopped: value must survive.
            n = yield from lib.wake_from_queue(q, n=1, value="payload")
            assert n == 1
            yield from threads.thread_yield()
            assert got == []  # still stopped
            yield from threads.thread_continue(tid)
            yield from threads.thread_wait(tid)

        run_program(main)
        assert got == ["payload"]


class TestPoolAccounting:
    def test_parked_list_tracks_idle_lwps(self):
        got = {}

        def main():
            ctx = yield GetContext()
            lib = ctx.process.threadlib
            yield from threads.thread_setconcurrency(3)
            yield from unistd.sleep_usec(2_000)  # extras park
            got["parked"] = len(lib.parked)
            got["pool"] = len(lib.pool_lwps)

        run_program(main, ncpus=2, check_deadlock=False)
        assert got["pool"] == 3
        assert got["parked"] == 2  # all but the one running main

    def test_user_switch_counter(self):
        def worker(_):
            yield from threads.thread_yield()

        def main():
            ctx = yield GetContext()
            lib = ctx.process.threadlib
            before = lib.user_switches
            tid = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)
            assert lib.user_switches > before

        run_program(main)
