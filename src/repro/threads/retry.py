"""Deadline-and-budget retry machinery for overloaded services.

:mod:`repro.threads.backoff` gives every ``lwp_create`` site one shared
EAGAIN loop; this module generalizes it into the client-side half of the
overload story: an unbounded retry loop against a saturated server is a
livelock (the demand never goes away, it just comes back harder), so
every retry here is bounded three ways —

* a **deadline** in virtual time: the whole operation, sleeps included,
  must finish inside ``deadline_usec`` or the last error propagates;
* a per-call **attempt cap** with capped exponential backoff and
  *seeded* jitter (drawn from the engine's named RNG streams, so two
  clients with the same policy desynchronize deterministically and the
  whole schedule replays bit-for-bit);
* an optional cross-call :class:`RetryBudget`, the global brake: when
  the budget is spent, calls fail fast instead of adding retry traffic
  to a server that is already drowning.

:class:`CircuitBreaker` is the fail-fast complement: after enough
consecutive failures the breaker opens and callers get ``EAGAIN``
immediately (no network traffic at all) until a cooldown expires, then a
single half-open probe decides whether to close it again.

Everything is a generator in simulated time; nothing here touches host
randomness or host clocks.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.errors import Errno, SyscallError
from repro.hw.isa import GetContext
from repro.runtime import unistd
from repro.sim.clock import usec
from repro.threads.backoff import _sleep

#: Errnos that mean "the service is overloaded or briefly absent" —
#: worth retrying.  Anything else (EPIPE, EINVAL, ...) propagates.
DEFAULT_RETRY_ERRNOS = frozenset({
    Errno.EAGAIN, Errno.ECONNREFUSED, Errno.ETIMEDOUT, Errno.ECONNRESET,
})


class RetryPolicy:
    """The shape of one bounded retry loop.

    Args:
        attempts: total tries (first call included) before giving up.
        base_usec / factor / max_delay_usec: exponential backoff
            schedule, capped.
        jitter: fraction of each delay drawn uniformly at random from
            the seeded stream (0.0 = none, 0.5 = up to half the delay).
        deadline_usec: overall virtual-time budget for the call,
            retries and sleeps included; ``None`` means attempts-bound
            only.
        retry_on: iterable of :class:`Errno` worth retrying.
    """

    def __init__(self, attempts: int = 5, base_usec: float = 200.0,
                 factor: float = 2.0, max_delay_usec: float = 20_000.0,
                 jitter: float = 0.5,
                 deadline_usec: Optional[float] = None,
                 retry_on: Iterable[int] = DEFAULT_RETRY_ERRNOS):
        self.attempts = max(1, attempts)
        self.base_usec = base_usec
        self.factor = factor
        self.max_delay_usec = max_delay_usec
        self.jitter = jitter
        self.deadline_usec = deadline_usec
        self.retry_on = frozenset(retry_on)

    def delay_usec(self, retry_no: int, rng) -> float:
        """Backoff delay before retry ``retry_no`` (1-based), jittered
        from the caller's seeded stream."""
        delay = min(self.base_usec * (self.factor ** (retry_no - 1)),
                    self.max_delay_usec)
        if self.jitter and rng is not None:
            delay += delay * self.jitter * rng.random()
        return delay


class RetryBudget:
    """A shared pool of retry tokens across many calls.

    The classic overload brake: each *retry* (not first attempt) costs a
    token; each *success* earns back ``refill_per_success`` of one, up
    to the cap.  When the pool is empty, retries are denied and the
    underlying error propagates immediately — a fleet of clients cannot
    amplify an outage by all retrying at once.
    """

    def __init__(self, max_tokens: float = 10.0,
                 refill_per_success: float = 0.5):
        self.max_tokens = max_tokens
        self.refill_per_success = refill_per_success
        self.tokens = float(max_tokens)
        self.denied = 0

    def try_spend(self) -> bool:
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        self.denied += 1
        return False

    def on_success(self) -> None:
        self.tokens = min(self.max_tokens,
                          self.tokens + self.refill_per_success)


class CircuitBreaker:
    """Consecutive-failure breaker in virtual time.

    closed --(``failure_threshold`` consecutive failures)--> open
    open --(``cooldown_usec`` elapses)--> half-open (one probe allowed)
    half-open --success--> closed;  half-open --failure--> open again.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, name: str = "breaker", failure_threshold: int = 5,
                 cooldown_usec: float = 10_000.0):
        self.name = name
        self.failure_threshold = max(1, failure_threshold)
        self.cooldown_usec = cooldown_usec
        self.state = self.CLOSED
        self.failures = 0           # consecutive, while closed
        self.opened_until_ns = 0
        self.trips = 0              # closed -> open transitions
        self.rejections = 0         # calls refused while open

    def allow(self, now_ns: int) -> bool:
        if self.state is not self.OPEN:
            return True
        if now_ns >= self.opened_until_ns:
            self.state = self.HALF_OPEN
            return True
        self.rejections += 1
        return False

    def on_success(self) -> None:
        self.state = self.CLOSED
        self.failures = 0

    def on_failure(self, now_ns: int) -> None:
        if self.state is self.HALF_OPEN:
            self._trip(now_ns)
            return
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self._trip(now_ns)

    def _trip(self, now_ns: int) -> None:
        self.state = self.OPEN
        self.trips += 1
        self.failures = 0
        self.opened_until_ns = now_ns + usec(self.cooldown_usec)


def call_with_retry(attempt: Callable, policy: Optional[RetryPolicy] = None,
                    name: str = "call",
                    budget: Optional[RetryBudget] = None):
    """Generator: run ``attempt()`` (a generator factory) under
    ``policy``.

    Retryable errors (per ``policy.retry_on``) are retried with capped,
    seeded-jitter backoff until the attempt cap, the deadline, or the
    shared budget says stop — then the *last real error* propagates
    (with one exception: a deadline that expires mid-backoff raises
    ``ETIMEDOUT``, because "we ran out of time" is the truth the caller
    can act on).  Non-retryable errors propagate untouched.
    """
    policy = policy or RetryPolicy()
    ctx = yield GetContext()
    engine = ctx.engine
    rng = engine.rng.stream(f"retry/{name}")
    m = engine.metrics
    deadline_ns = (engine.clock.now_ns + usec(policy.deadline_usec)
                   if policy.deadline_usec is not None else None)
    tries = 0
    while True:
        tries += 1
        try:
            result = yield from attempt()
        except SyscallError as err:
            if err.errno not in policy.retry_on:
                raise
            if m is not None:
                m.count("retry.failures")
            if tries >= policy.attempts:
                if m is not None:
                    m.count("retry.giveups")
                raise
            if budget is not None and not budget.try_spend():
                if m is not None:
                    m.count("retry.budget_denied")
                raise
            delay = policy.delay_usec(tries, rng)
            if deadline_ns is not None:
                remaining_usec = (deadline_ns - engine.clock.now_ns) / 1000.0
                if remaining_usec <= 0.0:
                    if m is not None:
                        m.count("retry.deadline_expired")
                    raise SyscallError(Errno.ETIMEDOUT, name,
                                       "retry deadline expired") from err
                # Never sleep past the deadline; the final attempt gets
                # whatever time is left.
                delay = min(delay, remaining_usec)
            if m is not None:
                m.count("retry.retries")
                m.sample("retry.delay_usec", int(delay))
            yield from _sleep(delay)
            continue
        if budget is not None:
            budget.on_success()
        if tries > 1 and m is not None:
            m.count("retry.recoveries")
        return result


def with_breaker(breaker: CircuitBreaker, attempt: Callable):
    """Generator: run ``attempt()`` through ``breaker``.

    An open breaker raises ``EAGAIN`` immediately (fail-fast: no
    syscalls, no traffic).  Compose with :func:`call_with_retry` by
    wrapping the *whole* retry loop, not each attempt — the breaker
    should see the final verdict, not every intermediate failure.
    """
    ctx = yield GetContext()
    engine = ctx.engine
    m = engine.metrics
    if not breaker.allow(engine.clock.now_ns):
        if m is not None:
            m.count("retry.breaker_rejected")
        raise SyscallError(Errno.EAGAIN, breaker.name, "circuit open")
    try:
        result = yield from attempt()
    except SyscallError:
        breaker.on_failure(engine.clock.now_ns)
        if m is not None and breaker.state is CircuitBreaker.OPEN:
            m.count("retry.breaker_tripped")
        raise
    breaker.on_success()
    return result


def recv_with_deadline(fd: int, length: int, deadline_usec: float):
    """Generator: ``recv(fd, length)`` bounded by a virtual-time
    deadline; raises ``ETIMEDOUT`` if no data/EOF/error arrives in time.

    Built on ``select`` with a timeout, so the wait is a *timed* kernel
    sleep — an LWP parked here never triggers SIGWAITING and never
    hangs a hang report: the deadline guarantees forward progress.
    ``EINTR`` (e.g. a sibling LWP calling fork) resumes the wait with
    the remaining time.
    """
    ctx = yield GetContext()
    engine = ctx.engine
    deadline_ns = engine.clock.now_ns + usec(deadline_usec)
    while True:
        remaining_ns = deadline_ns - engine.clock.now_ns
        if remaining_ns <= 0:
            m = engine.metrics
            if m is not None:
                m.count("retry.recv_timeouts")
            raise SyscallError(Errno.ETIMEDOUT, "recv",
                               f"fd {fd}: no data in {deadline_usec}us")
        try:
            ready = yield from unistd.select([fd], timeout_ns=remaining_ns)
        except SyscallError as err:
            if err.errno != Errno.EINTR:
                raise
            continue
        if ready:
            data = yield from unistd.recv(fd, length)
            return data
