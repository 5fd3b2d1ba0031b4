"""Findings and reports for the static analyzer.

A :class:`LintFinding` deliberately shares its serialized keys
(``kind`` / ``subject`` / ``message`` / ``detail``) with the dynamic
detectors' :class:`repro.explore.detectors.Finding` so a static report
and a :class:`repro.explore.explorer.ReproBundle` can be diffed directly:
``kind`` uses the same vocabulary where the rule mirrors a dynamic
detector (``lock-order``, ``lost-wakeup``, ``sema-underflow``,
``exit-holding-lock``, ``data-race``), and static-only rules introduce
their own kinds (``yield-discipline``, ``lock-balance``,
``condvar-discipline``, ``fork-hygiene``, ``blocking-under-lock``,
``robust-mutex``, ``retry-discipline``).

On top of the shared keys a finding carries its static provenance:
``rule`` id, ``file``, ``line``, ``function``, ``severity``, and a
held-set witness inside ``detail``.

Reports render as human text (one ``file:line:`` line per finding) or as
deterministic JSON: same input files, byte-identical output — no ids, no
timestamps, no hash ordering (the determinism test enforces this).
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

#: rule id -> finding kind (dynamic-detector vocabulary where one exists).
KIND_BY_RULE = {
    "L101": "yield-discipline",
    "L102": "yield-discipline",
    "L201": "lock-order",
    "L301": "exit-holding-lock",
    "L302": "lock-balance",
    "L303": "lock-balance",
    "L304": "sema-underflow",
    "L305": "lock-balance",
    "L401": "condvar-discipline",
    "L402": "lost-wakeup",
    "L403": "lost-wakeup",
    "L501": "fork-hygiene",
    "L601": "data-race",
    "L701": "blocking-under-lock",
    "L702": "blocking-under-lock",
    "L703": "blocking-under-lock",
    "L801": "robust-mutex",
    "L802": "robust-mutex",
    "L803": "robust-mutex",
    "L901": "retry-discipline",
    "L902": "retry-discipline",
    "L903": "retry-discipline",
}

#: rule id -> severity ("error" fails the gate outright; "warning" also
#: fails it — severity is advisory, suppression is the escape hatch).
SEVERITY_BY_RULE = {
    "L101": "error", "L102": "error",
    "L201": "error",
    "L301": "error", "L302": "error", "L303": "error",
    "L304": "error", "L305": "warning",
    "L401": "error", "L402": "error", "L403": "warning",
    "L501": "warning",
    "L601": "error",
    "L701": "error", "L702": "warning", "L703": "warning",
    "L801": "warning", "L802": "error", "L803": "error",
    "L901": "error", "L902": "warning", "L903": "warning",
}

#: rule id -> one-line catalogue entry (--list-rules, docs).
RULE_CATALOGUE = {
    "L101": "generator-API call whose generator is never driven "
            "(missing `yield from`) — the call is a silent no-op",
    "L102": "`yield` of a generator-API call (yields the generator "
            "object itself); use `yield from`",
    "L201": "cyclic static lock-acquisition order (potential deadlock); "
            "tryenter adds no edge",
    "L301": "path exits a function while still holding a lock acquired "
            "in it (early return / fall-off / raise / thread_exit)",
    "L302": "lock released on a path where it is never held",
    "L303": "blocking re-enter of a non-recursive mutex already held "
            "on every path reaching it",
    "L304": "pool-semaphore V without a matching P on the same path "
            "(in-use count underflow)",
    "L305": "held-lock set changes across one loop iteration "
            "(lock leak or release accumulates per iteration)",
    "L401": "cv wait without holding the mutex it is paired with",
    "L402": "cv wait guarded by `if` (or unguarded) instead of a "
            "`while` re-test loop — wakeups may be lost or spurious",
    "L403": "cv signal/broadcast without holding the predicate mutex "
            "its waiters pair it with (check-then-signal race)",
    "L501": "fork() reachable while a lock is statically held — child "
            "inherits a locked lock; use fork1() plus the tryenter "
            "protocol",
    "L601": "shared memory cell written by concurrently running "
            "threads whose static locksets share no common lock",
    "L701": "blocking net syscall (accept/connect/recv/send) reachable "
            "while any lock is statically held — serializes every "
            "sibling thread behind the stalled holder",
    "L702": "sleep, join, semaphore-P, or blocking structure op "
            "reachable while a lock is held (bounded stall; tryenter "
            "and nonblocking variants exempt)",
    "L703": "cv wait holding a lock beyond the mutex the wait "
            "releases — the extra lock stays held across the sleep",
    "L801": "robust-mutex EOWNERDEAD result discarded (bare "
            "`yield from m.enter()`) in a program that repairs owner "
            "death elsewhere — the recovery branch is unreachable",
    "L802": "`consistent()` called on a path where the mutex is not "
            "held (the runtime raises `not owner` there)",
    "L803": "mutex released while its owner-death mark is unrepaired — "
            "without `consistent()` first the lock is permanently "
            "unusable (NOTRECOVERABLE)",
    "L901": "unbounded retry: `while True` + handler that swallows "
            "syscall errors around a net attempt with no RetryPolicy "
            "deadline/budget or loop exit",
    "L902": "bare `recv` reachable from a supervised/spawned worker "
            "body; use `recv_with_deadline` so the supervisor's "
            "heartbeat can see the stall",
    "L903": "supervisor restart loop with no backoff (zero "
            "`backoff_base_usec` or a spawn/join retry loop with no "
            "sleep) — crash storms respawn at full speed",
}


class LintFinding:
    """One static-analysis verdict, anchored to source."""

    def __init__(self, rule: str, file: str, line: int, function: str,
                 subject: str, message: str, col: int = 0,
                 detail: Optional[dict] = None):
        self.rule = rule
        self.kind = KIND_BY_RULE[rule]
        self.severity = SEVERITY_BY_RULE[rule]
        self.file = file
        self.line = line
        self.col = col
        self.function = function
        self.subject = subject
        self.message = message
        self.detail = dict(detail or {})

    @property
    def sort_key(self) -> tuple:
        return (self.file, self.line, self.col, self.rule, self.subject)

    @property
    def fingerprint(self) -> str:
        """Position-independent identity, for baseline files."""
        return f"{self.rule}:{self.file}:{self.function}:{self.subject}"

    def to_dict(self) -> dict:
        detail = {k: str(v) for k, v in sorted(self.detail.items())}
        return {"rule": self.rule, "kind": self.kind,
                "severity": self.severity, "file": self.file,
                "line": self.line, "col": self.col,
                "function": self.function, "subject": self.subject,
                "message": self.message, "detail": detail}

    def format(self) -> str:
        held = self.detail.get("held")
        witness = f"  (held: {held})" if held else ""
        trace = self.detail.get("trace")
        if trace:
            witness += f"  [{trace}]"
        return (f"{self.file}:{self.line}: {self.rule} "
                f"[{self.kind}/{self.severity}] {self.function}: "
                f"{self.message}{witness}")

    def __repr__(self) -> str:
        return f"<LintFinding {self.rule} {self.file}:{self.line}>"


class LintReport:
    """Aggregate of one lint run: kept findings + suppression ledger."""

    def __init__(self):
        self.findings: list[LintFinding] = []
        self.suppressed: list[LintFinding] = []
        self.baselined: list[LintFinding] = []
        self.files: list[str] = []

    def add(self, finding: LintFinding) -> None:
        self.findings.append(finding)

    def finish(self) -> "LintReport":
        """Sort for deterministic output; call once after all rules ran."""
        self.findings.sort(key=lambda f: f.sort_key)
        self.suppressed.sort(key=lambda f: f.sort_key)
        self.baselined.sort(key=lambda f: f.sort_key)
        return self

    def apply_baseline(self, fingerprints: Iterable[str]) -> None:
        known = set(fingerprints)
        kept = []
        for f in self.findings:
            (self.baselined if f.fingerprint in known
             else kept).append(f)
        self.findings = kept

    def to_dict(self) -> dict:
        return {"files": sorted(self.files),
                "findings": [f.to_dict() for f in self.findings],
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined)}

    def to_json(self) -> str:
        """Deterministic JSON: same inputs, byte-identical bytes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f.format() for f in self.findings]
        summary = (f"{len(self.findings)} finding(s) in "
                   f"{len(self.files)} file(s)")
        if self.suppressed:
            summary += f", {len(self.suppressed)} suppressed inline"
        if self.baselined:
            summary += f", {len(self.baselined)} baselined"
        lines.append(summary)
        return "\n".join(lines)
