"""Self-test of the benchmark at tiny size.

Runs every workload of ``BENCHMARK.json`` with ``--size tiny`` in both
modes and checks that the result line holds every declared metric with
its unit, that the correctness check passed, and that the benchmark
refuses to run in a directory holding only ``BENCHMARK.json`` and its
own files.  Takes about a minute::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def result_line(cwd: str, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if proc.returncode == 0 else None)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    from suite import WORKLOADS

    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != "
                        f"suite {list(WORKLOADS)}")
    for name in names:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            proc, result = result_line(ROOT, name, trace)
            where = f"{name} --trace {trace}"
            if result is None:
                problems.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{where}: {result}\n{proc.stderr}")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared}
            if set(metrics) != set(want):
                problems.append(f"{where}: metrics differ from "
                                f"BENCHMARK.json: {set(metrics) ^ set(want)}")
            for m, unit in want.items():
                got = metrics.get(m, {})
                if got.get("unit") != unit or not math.isfinite(
                        got.get("value", math.nan)):
                    problems.append(f"{where}: {m} = {got}")
            print(f"ok {where}: {len(metrics)} metrics")

    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, _ = result_line(bare, names[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("ran without the simulator source")
        else:
            print("ok refuses to run without the simulator source")

    for p in problems:
        print("FAIL", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
