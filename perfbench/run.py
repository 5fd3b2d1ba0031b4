"""The repo benchmark: host cost of simulated work, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload server_poisson --seed 3 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``
(``host_us_per_op``, ``peak_rss_mb``, ``setup_s``, ``paper_error_pct``);
``--trace 1`` prints the per-layer metrics from a profiled run.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

A run replays the pinned seed once and compares its outputs with
``reference.json``; then it cycles through the input sets generated
from ``--seed`` for ``--seconds``.  Host time per op is the median over
each input set's reps, averaged over the sets.
Each rep is one attempted operation in the result line; a rep that
raises, fails its check, or disagrees with the first rep of its input
set on any output or exact count is a failed one.

``--size tiny`` shrinks every workload for the self-test;
``--record-reference`` rewrites ``reference.json`` from this tree.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

from hostspeed import REFERENCE_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

#: Cold imports timed per run, each in a fresh interpreter.
IMPORT_PROBES = 5

#: Input sets per run, generated from ``--seed``.  A run cycles through
#: all of them, so its figures average over several arrival traces or
#: shuffles instead of resting on one.
INPUT_SETS = 10


class Rep:
    """One rep's measurements.  Host times are scaled to the reference
    host speed run by run (see hostspeed.py)."""

    def __init__(self, seed, ops, outputs, recorder, wall_s):
        records = recorder.records
        self.seed = seed
        self.ops = ops
        self.outputs = outputs
        self.records = records
        self.scales = [recorder.scale(r) for r in records]
        self.raw_host_s = sum(r.host_s for r in records)
        self.host_s = sum(r.host_s * k for r, k in zip(records,
                                                         self.scales))
        # Everything outside the event loops: trace generation, kernel
        # boot, program build and spawn, result summaries.
        self.setup_s = ((wall_s - self.raw_host_s)
                        * self.host_s / self.raw_host_s)
        self.counts = {
            "events": [r.events for r in records],
            "syscalls": [r.syscalls for r in records],
        }

    @property
    def us_per_op(self) -> float:
        return self.host_s / self.ops * 1e6

    def arch_host_s(self, arch: str) -> float:
        return sum(r.host_s * k for r, k in zip(self.records, self.scales)
                   if r.label == arch)


class Bench:
    """One benchmark process: a workload, its recorder and its tallies."""

    def __init__(self, workload, recorder):
        self.workload = workload
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0

    def rep(self, seed: int):
        """Run and check one rep; None when it failed."""
        self.attempted += 1
        w = self.workload
        inputs = w.inputs(seed)
        rec = self.recorder
        rec.records = []
        gc.collect()
        rec.cal_s = 0.0
        try:
            t0 = time.perf_counter()
            ops, outputs = w.run(inputs, rec)
            # Calibrations taken between the rep's runs are not set-up.
            wall_s = time.perf_counter() - t0 - rec.cal_s
            rec.calibrate()
            w.finish(inputs, outputs)
            problems = w.check(inputs, outputs)
        except Exception:  # a crashed rep is a failed op, not a crash
            traceback.print_exc()
            problems = ["rep raised"]
        if problems:
            self.fail(f"seed {seed}", problems)
            return None
        return Rep(seed, ops, outputs, rec, wall_s)

    def fail(self, what: str, problems) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAIL {self.workload.name} {what}: {p}", file=sys.stderr)

    def pinned(self) -> None:
        """Replay the pinned seed and compare with ``reference.json``."""
        from suite import PINNED_SEED

        rep = self.rep(PINNED_SEED)
        if rep is None:
            return
        with open(REFERENCE) as fh:
            want = json.load(fh)[self.workload.name][self.workload.size]
        got = json.loads(json.dumps(rep.outputs))
        if got != want:
            self.fail("pinned seed", [f"outputs {got} != reference {want}"])

    def cycle(self, seed: int, seconds: float, firsts: dict,
              whole_rounds: bool = False) -> list:
        """Reps cycling through the run's input sets until ``seconds``
        have passed (and, with ``whole_rounds``, the round is complete).
        Every rep must match the first rep of its input set (``firsts``:
        input seed -> rep) on outputs and exact counts."""
        reps = []
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            sub_seed = seed * INPUT_SETS + k % INPUT_SETS
            k += 1
            rep = self.rep(sub_seed)
            if rep is not None:
                first = firsts.setdefault(sub_seed, rep)
                if (rep.outputs, rep.counts) == (first.outputs,
                                                 first.counts):
                    reps.append(rep)
                else:
                    self.fail(f"seed {sub_seed}",
                              ["outputs or exact counts differ between "
                               "reps of the same seed"])
            if time.perf_counter() >= deadline and not (
                    whole_rounds and k % INPUT_SETS):
                return reps


def import_seconds(modules) -> float:
    """Median cold-import time of ``modules`` in fresh interpreters,
    scaled to the reference host speed."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    times = []
    before = calibrate()
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code, SRC],
                             capture_output=True, text=True, check=True,
                             timeout=60, cwd=ROOT)
        after = calibrate()
        times.append(float(out.stdout) * REFERENCE_S * 2 / (before + after))
        before = after
    return statistics.median(times)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def host_us_per_op(reps) -> float:
    """The median over each input set's reps, averaged over the sets:
    the median resists host noise, the mean over sets averages the
    inputs' own spread (burst traces differ by 8% in events per op)."""
    by_set = defaultdict(list)
    for r in reps:
        by_set[r.seed].append(r.us_per_op)
    return statistics.mean(statistics.median(v) for v in by_set.values())


def end_to_end(bench: Bench, seed: int, seconds: float) -> dict:
    """The ``--trace 0`` metrics."""
    from suite import PaperFigures, figure_rows, paper_error_pct

    w = bench.workload
    import_s = import_seconds(w.modules)
    bench.pinned()
    firsts = {}
    reps = bench.cycle(seed, seconds, firsts)
    if not reps:
        return {}
    if isinstance(w, PaperFigures):
        rows = reps[0].outputs["rows"]
    else:
        # The model's accuracy is reported beside every speed figure:
        # one untimed Fig 5/6 pass at the paper_figures size.
        rows = figure_rows(PaperFigures.sizes[w.size])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print_counts(w.name, reps, list(firsts.values()))
    print(f"  cold import s {import_s:.4f}")
    return {
        "host_us_per_op": metric(host_us_per_op(reps), "us"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "setup_s": metric(
            import_s + statistics.median(r.setup_s for r in reps), "s"),
        "paper_error_pct": metric(paper_error_pct(rows), "%"),
    }


def per_layer(bench: Bench, seed: int, seconds: float) -> dict:
    """The ``--trace 1`` metrics: an untraced third of the time, then
    profiled reps for the rest."""
    from layers import LAYERS
    from repro.load import ARCHITECTURES

    rec = bench.recorder
    bench.pinned()
    # Whole rounds only, so every per-op count covers each input set
    # equally and repeats exactly from run to run.
    firsts = {}
    plain = bench.cycle(seed, seconds / 3, firsts, whole_rounds=True)
    if not plain:
        return {}
    rec.profile = True
    try:
        traced = bench.cycle(seed, seconds * 2 / 3, firsts,
                             whole_rounds=True)
    finally:
        rec.profile = False
    if not traced:
        return {}
    print_counts(bench.workload.name, plain, plain)

    ops = sum(r.ops for r in traced)
    self_s, calls = Counter(), Counter()
    for label in rec.self_s:
        self_s.update(rec.self_s[label])
        calls.update(rec.calls[label])
    total_s = sum(v for k, v in self_s.items() if k != "bench")
    traced_us = host_us_per_op(traced)

    out = {}

    def per_op(name, value, unit):
        out[name] = metric(value, unit)

    per_op("sim.events_per_op", per_op_count(plain, "events"), "count")
    per_op("sim.cancels_per_op", calls["cancels"] / ops, "count")
    per_op("hw.steps_per_op", calls["steps"] / ops, "count")
    per_op("hw.zero_delay_step_frac",
           calls["zero_delay_steps"] / max(1, calls["schedule_steps"]),
           "fraction")
    per_op("kernel.syscalls_per_op", per_op_count(plain, "syscalls"),
           "count")
    per_op("kernel.net.readiness_per_op", calls["readiness"] / ops,
           "count")
    per_op("obs.hook_calls_per_op", calls["hook_calls"] / ops, "count")
    per_op("kernel.sched.wakeups_per_op", calls["wakeups"] / ops, "count")
    per_op("threads.switches_per_op", calls["switches"] / ops, "count")
    for layer in LAYERS:
        frac = self_s[layer] / total_s
        per_op(f"{layer}.self_us_per_op", frac * traced_us, "us")
        per_op(f"{layer}.self_frac", frac, "fraction")
    per_op("trace.overhead_x",
           traced_us / host_us_per_op(plain), "x")

    # Per architecture: the server workloads offer `clients` requests to
    # each; elsewhere there are none and both read 0.
    clients = plain[0].ops // len(ARCHITECTURES)
    for arch in ARCHITECTURES:
        served = clients if arch in rec.calls else 0
        host = (statistics.median(r.arch_host_s(arch) for r in plain)
                / served * 1e6) if served else 0.0
        steps = (rec.calls[arch]["steps"] / (served * len(traced))
                 if served else 0.0)
        per_op(f"workloads.{arch}.host_us_per_request", host, "us")
        per_op(f"workloads.{arch}.steps_per_request", steps, "count")

    print_layers(bench.workload.name, self_s, total_s)
    return out


def per_op_count(reps, name: str) -> float:
    """An exact count of the reps' event loops, per op."""
    return sum(sum(r.counts[name]) for r in reps) / sum(r.ops for r in reps)


def print_counts(name: str, reps, round_) -> None:
    """Human-readable summary; exact counts over one round."""
    print(f"{name}: {len(reps)} reps, {reps[0].ops} ops/rep, "
          f"events/op {per_op_count(round_, 'events'):.3f}, "
          f"syscalls/op {per_op_count(round_, 'syscalls'):.3f}, "
          f"setup s " + " ".join(f"{x.setup_s:.4f}" for x in reps[:8]))
    print("  host us/op " + " ".join(f"{x.us_per_op:.1f}" for x in reps))
    print("  unscaled   " + " ".join(f"{x.raw_host_s / x.ops * 1e6:.1f}"
                                     for x in reps))


def print_layers(name: str, self_s, total_s) -> None:
    from layers import LAYERS

    print(f"{name}: traced self-time share by layer")
    for layer in (*LAYERS, "other"):
        if self_s[layer]:
            print(f"  {layer:16s} {self_s[layer] / total_s:6.1%}")


def record_reference() -> None:
    """Rewrite ``reference.json``: pinned-seed outputs at every size."""
    from layers import Recorder
    from suite import PINNED_SEED, WORKLOADS

    recorder = Recorder(os.path.join(SRC, "repro")).install()
    ref = {}
    for name, cls in WORKLOADS.items():
        for size in cls.sizes:
            bench = Bench(cls(name, size), recorder)
            rep = bench.rep(PINNED_SEED)
            if rep is None:
                sys.exit(f"{name}/{size}: pinned rep failed")
            ref.setdefault(name, {})[size] = rep.outputs
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_reference:
        record_reference()
        return 0

    from layers import Recorder
    from suite import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.workload, args.size)
    recorder = Recorder(os.path.join(SRC, "repro")).install()
    bench = Bench(workload, recorder)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(bench, args.seed, args.seconds)
    finally:
        recorder.uninstall()
    if not metrics:
        print(f"perfbench: {args.workload}: no rep succeeded",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
