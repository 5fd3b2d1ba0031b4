"""Tests for the event queue: ordering, cancellation, FIFO ties."""

from repro.sim.events import EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.push(30, lambda: fired.append("c"))
        q.push(10, lambda: fired.append("a"))
        q.push(20, lambda: fired.append("b"))
        while True:
            ev = q.pop()
            if ev is None:
                break
            ev.fn()
        assert fired == ["a", "b", "c"]

    def test_fifo_at_equal_times(self):
        q = EventQueue()
        order = []
        for i in range(10):
            q.push(100, lambda i=i: order.append(i))
        while (ev := q.pop()) is not None:
            ev.fn()
        assert order == list(range(10))

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(5, lambda: None)
        assert q.peek_time() == 5
        assert q.peek_time() == 5
        assert q.pop() is not None
        assert q.pop() is None


class TestCancellation:
    def test_cancelled_event_never_pops(self):
        q = EventQueue()
        ev = q.push(1, lambda: None)
        ev.cancel()
        assert q.pop() is None

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.push(1, lambda: None)
        ev.cancel()
        ev.cancel()
        assert q.pop() is None

    def test_peek_skips_cancelled_head(self):
        q = EventQueue()
        first = q.push(1, lambda: None)
        q.push(2, lambda: None)
        first.cancel()
        assert q.peek_time() == 2

    def test_cancel_middle_preserves_others(self):
        q = EventQueue()
        keep1 = q.push(1, lambda: None)
        victim = q.push(2, lambda: None)
        keep2 = q.push(3, lambda: None)
        victim.cancel()
        assert q.pop() is keep1
        assert q.pop() is keep2
        assert q.pop() is None


class TestPopNext:
    """The queue's one pop, used by the engine run loop (and by pop and
    peek_time)."""

    def test_pops_in_order(self):
        q = EventQueue()
        a = q.push(10, lambda: None)
        b = q.push(20, lambda: None)
        assert q.pop_next() == (10, a)
        assert q.pop_next() == (20, b)
        assert q.pop_next() == (None, None)

    def test_empty_queue(self):
        assert EventQueue().pop_next() == (None, None)
        assert EventQueue().pop_next(until_ns=100) == (None, None)

    def test_skips_cancelled_head(self):
        q = EventQueue()
        first = q.push(1, lambda: None)
        second = q.push(2, lambda: None)
        first.cancel()
        assert q.pop_next() == (2, second)
        assert q.pop_next() == (None, None)

    def test_all_cancelled_drains_to_empty(self):
        q = EventQueue()
        for t in (1, 2, 3):
            q.push(t, lambda: None).cancel()
        assert q.pop_next() == (None, None)
        assert len(q._heap) == 0  # cancelled entries were purged

    def test_until_boundary_is_inclusive(self):
        q = EventQueue()
        ev = q.push(100, lambda: None)
        assert q.pop_next(until_ns=100) == (100, ev)

    def test_beyond_until_reports_time_without_popping(self):
        q = EventQueue()
        ev = q.push(100, lambda: None)
        assert q.pop_next(until_ns=99) == (100, None)
        # The event is still in the queue and pops later.
        assert q.pop_next() == (100, ev)

    def test_beyond_until_skips_cancelled_first(self):
        # A cancelled event *before* the horizon must not mask a live
        # event beyond it.
        q = EventQueue()
        early = q.push(50, lambda: None)
        q.push(200, lambda: None)
        early.cancel()
        assert q.pop_next(until_ns=100) == (200, None)

    def test_before_bound_orders_by_time_then_seq(self):
        # ``before`` is a reserved (time, seq) key, such as a CPU's
        # pending step: only an entry sorting before it pops.
        q = EventQueue()
        ev = q.push(100, lambda: None)          # seq 0
        assert q.pop_next(before=(100, 0)) == (100, None)
        assert q.pop_next(before=(99, 5)) == (100, None)
        assert q.pop_next(before=(100, 1)) == (100, ev)

    def test_before_bound_with_until(self):
        q = EventQueue()
        ev = q.push(100, lambda: None)
        assert q.pop_next(until_ns=99, before=(200, 9)) == (100, None)
        assert q.pop_next(until_ns=100, before=(200, 9)) == (100, ev)

    def test_live_count_tracks_pop_next(self):
        q = EventQueue()
        q.push(1, lambda: None)
        q.push(2, lambda: None)
        q.pop_next()
        assert len(q) == 1
        q.pop_next()
        assert len(q) == 0


class TestLen:
    def test_len_counts_live(self):
        q = EventQueue()
        q.push(1, lambda: None)
        q.push(2, lambda: None)
        assert len(q) == 2
        q.pop()
        assert len(q) == 1

    def test_bool_reflects_liveness(self):
        q = EventQueue()
        assert not q
        ev = q.push(1, lambda: None)
        assert q
        ev.cancel()
        assert not q
