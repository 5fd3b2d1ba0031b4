#!/usr/bin/env python
"""Docs-consistency checker: links, CLI usage blocks, example coverage.

Four classes of rot this catches, all of which have actually happened
to this repo or will:

1. **Dead relative links** — ``[text](docs/FILE.md)`` pointing at a
   file that moved or never existed.  External links and anchors are
   out of scope (no network in CI).
2. **CLI drift** — a fenced shell block showing ``python -m repro.x
   --flag`` where ``--flag`` is no longer (or never was) accepted.
   Flags are validated against the live ``--help`` of each CLI.
3. **Catalogue drift** — a doc catalogue disagreeing, in either
   direction, with the live command that lists the same names (one
   table, :data:`CATALOGUES`): lint rule ids (``--list-rules``) vs the
   ARCHITECTURE §9 catalogue and any ``L###`` a doc mentions;
   scheduling classes (``--list-sched-classes``) vs the ARCHITECTURE
   class table; docs/SCALING.md's flag reference vs the live
   ``python -m repro.load bakeoff --help``; and its arrival-process
   table vs ``--list-arrivals``.
4. **Example-list drift** — a file in ``examples/`` missing from the
   README's inventory, or the README naming an example that is gone.

Run:  python tools/check_docs.py   (exit 1 on any finding)
The CI ``docs`` job runs this; tests/test_docs.py wraps the same
functions so plain ``pytest`` catches rot too.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from typing import NamedTuple, Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Markdown files under the consistency contract.  SNIPPETS/PAPERS are
#: scraped reference material with external-repo paths; skip them.
DOC_FILES = [
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
    "docs/ARCHITECTURE.md", "docs/PAPER_MAP.md", "docs/OBSERVABILITY.md",
    "docs/SCALING.md",
]

#: CLI commands whose --help defines the set of legal flags.
CLI_COMMANDS = {
    "python -m repro.explore": [sys.executable, "-m", "repro.explore"],
    "python -m repro.lint": [sys.executable, "-m", "repro.lint"],
    "python -m repro.obs": [sys.executable, "-m", "repro.obs"],
    "python -m repro.load bakeoff": [
        sys.executable, "-m", "repro.load", "bakeoff"],
    "python -m repro.load trace": [
        sys.executable, "-m", "repro.load", "trace"],
    "python -m repro.load": [sys.executable, "-m", "repro.load"],
    "python -m repro": [sys.executable, "-m", "repro"],
    "python benchmarks/perf/run.py": [
        sys.executable, os.path.join("benchmarks", "perf", "run.py")],
}

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"```(?:bash|sh|console)?\n(.*?)```", re.DOTALL)
_FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")


def _doc_paths() -> list[str]:
    return [p for p in DOC_FILES
            if os.path.exists(os.path.join(REPO, p))]


# ------------------------------------------------------------- 1. links

def check_links() -> list[str]:
    """Every relative markdown link must resolve to an existing file."""
    problems = []
    for rel in _doc_paths():
        path = os.path.join(REPO, rel)
        with open(path) as fh:
            text = fh.read()
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target_path))
            if not os.path.exists(resolved):
                problems.append(f"{rel}: dead link -> {target}")
    return problems


# --------------------------------------------------------- 2. CLI drift

def _run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, cwd=REPO,
                          env={**os.environ,
                               "PYTHONPATH": os.path.join(REPO, "src")})


def _help_flags(argv: list[str]) -> set[str]:
    out = _run_cli(argv + ["--help"])
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} --help failed:\n"
                           f"{out.stderr}")
    return set(_FLAG_RE.findall(out.stdout))


def check_cli_blocks() -> list[str]:
    """Flags shown in fenced shell blocks must exist in live --help."""
    problems = []
    help_cache: dict[str, set] = {}
    for rel in _doc_paths():
        with open(os.path.join(REPO, rel)) as fh:
            text = fh.read()
        for block in _FENCE_RE.findall(text):
            for line in block.splitlines():
                line = line.strip()
                # Longest command prefix wins (python -m repro vs
                # python -m repro.explore).
                cmd = max((c for c in CLI_COMMANDS if c in line),
                          key=len, default=None)
                if cmd is None:
                    continue
                if cmd not in help_cache:
                    help_cache[cmd] = _help_flags(CLI_COMMANDS[cmd])
                for flag in _FLAG_RE.findall(line.split(cmd, 1)[1]):
                    if flag not in help_cache[cmd]:
                        problems.append(
                            f"{rel}: `{cmd} ... {flag}` — flag not in "
                            f"--help (CLI drift)")
    return problems


# --------------------------------------------------- 3. catalogue drift

class Catalogue(NamedTuple):
    """One catalogue a doc keeps of names a live command prints."""

    #: The live command (after ``python -m``) and a regex for the names
    #: it prints.
    cmd: list[str]
    live: str
    #: The doc file and its ``## `` section holding the catalogue (None:
    #: the whole file), and a regex for the names the doc claims there.
    doc: str
    section: Optional[str]
    claims: str
    #: Messages for a live name the doc misses, and for a claim the
    #: live command does not print.
    missing: str
    unknown: str
    #: Claims are also checked in every other doc file (prose mentions
    #: count as claims there).
    everywhere: bool = False


#: Both directions are checked for each: no undocumented name, no ghost.
CATALOGUES = {
    # Lint rule ids vs the ARCHITECTURE §9 catalogue; any doc's L###.
    "rules": Catalogue(
        ["repro.lint", "--list-rules"], r"(?m)^(L\d{3}):",
        "docs/ARCHITECTURE.md", None, r"\b(L\d{3})\b",
        "rule {} missing from the §9 catalogue",
        "mentions unknown rule {}", everywhere=True),
    # Registered scheduling classes vs the §12 table's first column.
    "sched-classes": Catalogue(
        ["repro.explore", "--list-sched-classes"], r"(?m)^([A-Z]+):",
        "docs/ARCHITECTURE.md", "Kernel scheduling classes",
        r"(?m)^\| `([A-Z]+)` \|",
        "class {} missing from the scheduling-class catalogue",
        "catalogue lists unknown class {}"),
    # The bakeoff's usage block vs the flags leading each bullet.
    "load-cli": Catalogue(
        ["repro.load", "bakeoff", "--help"], r"\[(--[a-z][\w-]*)",
        "docs/SCALING.md", "Flag reference",
        r"(?m)(?:^\* `|` / `)(--[a-z][\w-]*)(?=`)",
        "bakeoff flag {} missing from the flag reference",
        "flag reference lists {}, which bakeoff --help does not accept"),
    # Registered arrival processes vs the catalogue table.
    "arrivals": Catalogue(
        ["repro.load", "--list-arrivals"], r"(?m)^([a-z]+):",
        "docs/SCALING.md", "Arrival-process catalogue",
        r"(?m)^\| `([a-z]+)` \|",
        "arrival process {} missing from the catalogue table",
        "catalogue lists unknown arrival process {}"),
}


def _section(text: str, title: Optional[str]) -> Optional[str]:
    """The ``## [N. ]<title>`` section of ``text`` (all of it for None)."""
    if title is None:
        return text
    m = re.search(rf"^## (?:\d+\. )?{re.escape(title)}\b.*?(?=^## |\Z)",
                  text, re.MULTILINE | re.DOTALL)
    return m.group(0) if m else None


def check_catalogue(cat: Catalogue) -> list[str]:
    """The doc's catalogue and the live command agree both ways."""
    cmd = " ".join(cat.cmd)
    out = _run_cli([sys.executable, "-m"] + cat.cmd)
    if out.returncode != 0:
        return [f"{cmd} failed:\n{out.stderr}"]
    known = set(re.findall(cat.live, out.stdout))
    if not known:
        return [f"{cmd} printed no catalogue entries"]
    with open(os.path.join(REPO, cat.doc)) as fh:
        section = _section(fh.read(), cat.section)
    if section is None:
        return [f"{cat.doc}: '## {cat.section}' section not found"]
    claimed = {cat.doc: set(re.findall(cat.claims, section))}
    if cat.everywhere:
        for rel in _doc_paths():
            with open(os.path.join(REPO, rel)) as fh:
                claimed.setdefault(rel, set(re.findall(cat.claims,
                                                       fh.read())))
    problems = [f"{cat.doc}: " + cat.missing.format(name)
                for name in sorted(known - claimed[cat.doc])]
    for rel, names in claimed.items():
        problems += [f"{rel}: " + cat.unknown.format(name)
                     for name in sorted(names - known)]
    return problems


# ------------------------------------------------- 4. example inventory

def check_example_inventory() -> list[str]:
    """examples/*.py and the README inventory must agree both ways."""
    problems = []
    with open(os.path.join(REPO, "README.md")) as fh:
        readme = fh.read()
    on_disk = {f for f in os.listdir(os.path.join(REPO, "examples"))
               if f.endswith(".py")}
    for fname in sorted(on_disk):
        if fname not in readme:
            problems.append(f"README.md: examples/{fname} not mentioned")
    for fname in set(re.findall(r"(\w+\.py)", readme)):
        if (fname.islower() and fname not in on_disk
                and os.sep not in fname
                and ("examples/" + fname) in readme):
            problems.append(f"README.md: examples/{fname} listed but "
                            f"missing on disk")
    return problems


def main() -> int:
    problems = check_links() + check_cli_blocks()
    for cat in CATALOGUES.values():
        problems += check_catalogue(cat)
    problems += check_example_inventory()
    for p in problems:
        print(f"DOCS: {p}")
    print(f"check_docs: {len(problems)} problem(s) across "
          f"{len(_doc_paths())} file(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
