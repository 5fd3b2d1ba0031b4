"""Signals: constants, sets, dispositions, and classification.

The paper reinterprets UNIX signals for the multi-threaded world:

* Signals are divided into **traps** (synchronous: SIGILL, SIGFPE,
  SIGSEGV...) handled only by the thread that caused them, and
  **interrupts** (asynchronous: SIGINT, SIGIO...) that may be handled by
  any thread with the signal enabled in its mask.
* Each thread (and each LWP) has its own **signal mask**; all threads share
  the process-wide set of **handlers**.
* If every eligible entity masks an interrupt, it **pends on the process**
  until someone unmasks it; the count of delivered signals never exceeds
  the count sent.
* ``SIGWAITING`` is new: sent when all LWPs of a process block in
  indefinite waits, so the threads library can add an LWP.

This module holds the data types; the delivery machinery lives in
:mod:`repro.kernel.kernel` and the user-level routing in
:mod:`repro.threads.signals`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Optional


class Sig(enum.IntEnum):
    """Signal numbers (SVID-ish subset plus SIGWAITING)."""

    SIGHUP = 1
    SIGINT = 2
    SIGQUIT = 3
    SIGILL = 4
    SIGTRAP = 5
    SIGABRT = 6
    SIGEMT = 7
    SIGFPE = 8
    SIGKILL = 9
    SIGBUS = 10
    SIGSEGV = 11
    SIGSYS = 12
    SIGPIPE = 13
    SIGALRM = 14
    SIGTERM = 15
    SIGUSR1 = 16
    SIGUSR2 = 17
    SIGCHLD = 18
    SIGPWR = 19
    SIGWINCH = 20
    SIGURG = 21
    SIGIO = 22
    SIGSTOP = 23
    SIGTSTP = 24
    SIGCONT = 25
    SIGTTIN = 26
    SIGTTOU = 27
    SIGVTALRM = 28
    SIGPROF = 29
    SIGXCPU = 30
    SIGXFSZ = 31
    SIGWAITING = 32


#: Synchronous signals, "caused by the operation of a thread, and handled
#: only by the thread that caused them" (paper, Signal handling).
TRAP_SIGNALS = frozenset({
    Sig.SIGILL, Sig.SIGTRAP, Sig.SIGFPE, Sig.SIGBUS, Sig.SIGSEGV,
    Sig.SIGSYS, Sig.SIGEMT,
})

#: Signals that cannot be caught, blocked, or ignored.
UNBLOCKABLE = frozenset({Sig.SIGKILL, Sig.SIGSTOP})


def is_trap(sig: Sig) -> bool:
    """True for synchronous (trap) signals, false for interrupts."""
    return sig in TRAP_SIGNALS


class Disposition(enum.Enum):
    """What receipt of an uncaught signal does to the whole process."""

    EXIT = "exit"
    CORE = "core"
    STOP = "stop"
    CONTINUE = "continue"
    IGNORE = "ignore"


#: Default action per signal (paper: "exit, core dump, stop, continue, or
#: ignore ... affects all the threads in the receiving process").
DEFAULT_DISPOSITION: dict[Sig, Disposition] = {
    Sig.SIGHUP: Disposition.EXIT,
    Sig.SIGINT: Disposition.EXIT,
    Sig.SIGQUIT: Disposition.CORE,
    Sig.SIGILL: Disposition.CORE,
    Sig.SIGTRAP: Disposition.CORE,
    Sig.SIGABRT: Disposition.CORE,
    Sig.SIGEMT: Disposition.CORE,
    Sig.SIGFPE: Disposition.CORE,
    Sig.SIGKILL: Disposition.EXIT,
    Sig.SIGBUS: Disposition.CORE,
    Sig.SIGSEGV: Disposition.CORE,
    Sig.SIGSYS: Disposition.CORE,
    Sig.SIGPIPE: Disposition.EXIT,
    Sig.SIGALRM: Disposition.EXIT,
    Sig.SIGTERM: Disposition.EXIT,
    Sig.SIGUSR1: Disposition.EXIT,
    Sig.SIGUSR2: Disposition.EXIT,
    Sig.SIGCHLD: Disposition.IGNORE,
    Sig.SIGPWR: Disposition.IGNORE,
    Sig.SIGWINCH: Disposition.IGNORE,
    Sig.SIGURG: Disposition.IGNORE,
    Sig.SIGIO: Disposition.EXIT,
    Sig.SIGSTOP: Disposition.STOP,
    Sig.SIGTSTP: Disposition.STOP,
    Sig.SIGCONT: Disposition.CONTINUE,
    Sig.SIGTTIN: Disposition.STOP,
    Sig.SIGTTOU: Disposition.STOP,
    Sig.SIGVTALRM: Disposition.EXIT,
    Sig.SIGPROF: Disposition.EXIT,
    Sig.SIGXCPU: Disposition.CORE,
    Sig.SIGXFSZ: Disposition.CORE,
    # The paper: "The default handling for SIGWAITING is to ignore it."
    Sig.SIGWAITING: Disposition.IGNORE,
}

#: Sentinels usable wherever a handler function is expected.
SIG_DFL = "SIG_DFL"
SIG_IGN = "SIG_IGN"

#: ``how`` arguments of sigprocmask / thread_sigsetmask.
SIG_BLOCK = 0
SIG_UNBLOCK = 1
SIG_SETMASK = 2


class Sigset:
    """A set of signals (mask or pending set).  ``bits`` is the signal
    word (bit ``n`` for signal ``n``); hot paths test it directly."""

    __slots__ = ("bits",)

    def __init__(self, signals: Optional[Iterable[Sig]] = None):
        self.bits = 0
        if signals:
            for s in signals:
                self.add(s)

    @classmethod
    def full(cls) -> "Sigset":
        """All blockable signals set."""
        ss = cls()
        for s in Sig:
            if s not in UNBLOCKABLE:
                ss.add(s)
        return ss

    def add(self, sig: Sig) -> None:
        self.bits |= (1 << int(sig))

    def discard(self, sig: Sig) -> None:
        self.bits &= ~(1 << int(sig))

    def __contains__(self, sig: Sig) -> bool:
        return bool(self.bits & (1 << int(sig)))

    def copy(self) -> "Sigset":
        ss = Sigset()
        ss.bits = self.bits
        return ss

    def union(self, other: "Sigset") -> "Sigset":
        ss = Sigset()
        ss.bits = self.bits | other.bits
        return ss

    def difference(self, other: "Sigset") -> "Sigset":
        ss = Sigset()
        ss.bits = self.bits & ~other.bits
        return ss

    def apply(self, how: int, other: "Sigset") -> "Sigset":
        """Return the mask produced by sigprocmask-style update ``how``."""
        if how == SIG_BLOCK:
            new = self.union(other)
        elif how == SIG_UNBLOCK:
            new = self.difference(other)
        elif how == SIG_SETMASK:
            new = other.copy()
        else:
            raise ValueError(f"bad sigprocmask how: {how}")
        # SIGKILL and SIGSTOP can never be blocked.
        for s in UNBLOCKABLE:
            new.discard(s)
        return new

    def signals(self) -> list[Sig]:
        """The members, ascending by signal number (deterministic).

        Extracts set bits lowest-first instead of probing all 32 signal
        numbers: pending sets are almost always empty or near-empty, and
        this runs on every syscall exit (``kernel_exit_check``).
        """
        bits = self.bits
        out = []
        while bits:
            low = bits & -bits
            out.append(Sig(low.bit_length() - 1))
            bits ^= low
        return out

    def first(self) -> Optional[Sig]:
        """The lowest-numbered member, or None if empty (hot-path helper:
        no list is built)."""
        bits = self.bits
        if not bits:
            return None
        return Sig((bits & -bits).bit_length() - 1)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Sigset) and self.bits == other.bits

    def __repr__(self) -> str:
        names = ",".join(s.name for s in self.signals())
        return f"Sigset({names})"


@dataclasses.dataclass
class SigAction:
    """Process-wide disposition of one signal.

    ``handler`` is SIG_DFL, SIG_IGN, or a user generator function taking
    the signal number.  All threads in the address space share this table
    (paper: handlers "are set up by signal() and its variants, as usual").

    ``restart`` gives SA_RESTART semantics: a system call interrupted by
    this signal resumes instead of failing with EINTR.  The threads
    library installs its SIGWAITING handler this way, so pool growth is
    invisible to blocked threads.
    """

    handler: object = SIG_DFL
    mask: Sigset = dataclasses.field(default_factory=Sigset)
    restart: bool = False

    def is_default(self) -> bool:
        return self.handler == SIG_DFL

    def is_ignore(self) -> bool:
        return self.handler == SIG_IGN

    def is_caught(self) -> bool:
        return not (self.is_default() or self.is_ignore())


#: Template for the per-signal counters; copied (C-level) per process
#: instead of re-iterating the enum for every SignalState.
_ZERO_COUNTS = {s: 0 for s in Sig}


class SignalState:
    """Per-process signal state: handler table + process pending set."""

    def __init__(self):
        # Materialized lazily: a signal that was never set_action()'d is
        # indistinguishable from an explicit default entry (exec's reset
        # loop and fork_copy only ever see non-default state), and most
        # processes touch one or two signals, not the whole table.
        self.actions: dict[Sig, SigAction] = {}
        # Interrupts that no LWP could take yet "pend on the process until
        # a thread unmasks that signal".
        self.pending = Sigset()
        # Count of signals posted/delivered, for the paper's invariant that
        # delivered <= sent.
        self.sent_count: dict[Sig, int] = dict(_ZERO_COUNTS)
        self.delivered_count: dict[Sig, int] = dict(_ZERO_COUNTS)

    def action(self, sig: Sig) -> SigAction:
        sig = Sig(sig)
        act = self.actions.get(sig)
        if act is None:
            act = self.actions[sig] = SigAction()
        return act

    def set_action(self, sig: Sig, handler, mask: Optional[Sigset] = None,
                   restart: bool = False) -> SigAction:
        """Install a handler; returns the previous action (sigaction)."""
        sig = Sig(sig)
        if sig in UNBLOCKABLE and handler not in (SIG_DFL,):
            raise ValueError(f"{sig.name} cannot be caught or ignored")
        old = self.actions.get(sig)
        if old is None:
            old = SigAction()
        self.actions[sig] = SigAction(handler=handler,
                                      mask=mask.copy() if mask else Sigset(),
                                      restart=restart)
        return old

    def disposition(self, sig: Sig) -> Disposition:
        """Effective default action if the signal is not caught."""
        act = self.actions.get(Sig(sig))
        if act is not None and act.is_ignore():
            return Disposition.IGNORE
        return DEFAULT_DISPOSITION[Sig(sig)]

    def fork_copy(self) -> "SignalState":
        """Signal state inherited across fork: handlers yes, pending no."""
        new = SignalState()
        for sig, act in self.actions.items():
            new.actions[sig] = SigAction(handler=act.handler,
                                         mask=act.mask.copy(),
                                         restart=act.restart)
        return new
