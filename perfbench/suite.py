"""The four benchmark workloads: seeded inputs, one rep, and its check.

A *rep* is one complete pass of a workload over inputs generated from
the seed.  It returns the number of ops it offered and the model
outputs the correctness check and the pinned reference compare.  Every
simulation inside a rep goes through ``Simulator.run``, which the
benchmark's recorder wraps to time the event loop and read the exact
work counts; nothing under ``src/`` is touched.

An op is one offered client request on the server workloads (the three
architectures' requests summed), one delivered input event on
``window_system``, and one timed thread operation on ``paper_figures``
(n per Fig 5/6 row).
"""

from __future__ import annotations

import math
import random

#: The seed whose outputs ``reference.json`` pins.  Every run replays it
#: once, whatever ``--seed`` says, so a behaviour change shows on any seed.
PINNED_SEED = 0

#: Offered rate of both server workloads: just under the knee of the
#: single-acceptor architectures.
ARRIVAL_RATE_PER_SEC = 1_000.0

#: Fig 5/6 rows, in the paper's order.
FIGURE_ROWS = ("unbound_create", "bound_create", "setjmp_longjmp",
               "unbound_sync", "bound_sync", "cross_process_sync")


class Workload:
    """One named workload: its sizes and its rep.  Each workload's
    one-line rationale sits beside its name in ``BENCHMARK.json``."""

    #: Modules a cold set-up imports (timed in fresh interpreters).
    modules: tuple = ()
    #: --size -> the size parameter of a rep.
    sizes: dict = {}

    def __init__(self, name: str, size: str):
        self.name = name
        self.size = size
        self.n = self.sizes[size]

    def inputs(self, seed: int) -> dict:
        """The generated inputs of one rep; the same seed gives the same
        inputs."""
        raise NotImplementedError

    def run(self, inputs: dict, recorder) -> tuple[int, dict]:
        """Run one rep; returns ``(ops, outputs)``."""
        raise NotImplementedError

    def finish(self, inputs: dict, outputs: dict) -> None:
        """Add outputs that cost host time but are not part of the rep
        (called outside the timed region)."""

    def check(self, inputs: dict, outputs: dict) -> list[str]:
        """Problems with one rep's outputs; empty when correct."""
        raise NotImplementedError


class Server(Workload):
    """The open-loop three-architecture bakeoff, one arrival process."""

    modules = ("repro.api", "repro.load", "repro.sim.trace",
               "repro.workloads.network_server")
    kind = ""

    def inputs(self, seed: int) -> dict:
        return {"kind": self.kind,
                "params": {"rate_per_sec": ARRIVAL_RATE_PER_SEC},
                "clients": self.n, "seed": seed, "start_usec": 1_000.0}

    def run(self, inputs, recorder):
        from repro.load import ARCHITECTURES, run_arch

        archs = {}
        for arch in ARCHITECTURES:
            recorder.label = arch
            out = run_arch(arch, inputs)
            archs[arch] = {"offered": out["offered"],
                           "outcomes": out["outcomes"],
                           "latency_ns": out["latency_ns"]}
        recorder.label = None
        return len(ARCHITECTURES) * self.n, {"architectures": archs}

    def finish(self, inputs, outputs):
        from repro.load import ArrivalTrace

        outputs["trace_digest"] = ArrivalTrace.from_spec(inputs).digest()

    def check(self, inputs, outputs):
        problems = []
        for arch, out in outputs["architectures"].items():
            resolved = sum(out["outcomes"].values())
            if out["offered"] != self.n or resolved != self.n:
                problems.append(
                    f"{arch}: offered {out['offered']}, resolved "
                    f"{resolved}, expected {self.n} each")
        return problems


class ServerPoisson(Server):
    kind = "poisson"
    sizes = {"full": 500, "tiny": 60}


class ServerBurst(Server):
    kind = "burst"
    sizes = {"full": 1_000, "tiny": 120}


class WindowSystem(Workload):
    """200 unbound widget threads over M:N on 2 CPUs, metrics off."""

    modules = ("repro.api", "repro.workloads.window_system")
    sizes = {"full": (200, 2_000), "tiny": (20, 100)}

    def inputs(self, seed):
        # build() draws its event shuffle from this seed; it takes no
        # order argument, so the seed is the generated input.
        n_widgets, n_events = self.n
        return {"n_widgets": n_widgets, "n_events": n_events, "seed": seed}

    def run(self, inputs, recorder):
        from repro.api import Simulator
        from repro.workloads import window_system

        main, results = window_system.build(**inputs)
        sim = Simulator(ncpus=2, seed=inputs["seed"])
        sim.spawn(main, name="winsys")
        sim.run()
        return inputs["n_events"], {
            "processed": results["processed"],
            "elapsed_usec": results["elapsed_usec"]}

    def check(self, inputs, outputs):
        if outputs["processed"] != inputs["n_events"]:
            return [f"processed {outputs['processed']} of "
                    f"{inputs['n_events']} events"]
        return []


class PaperFigures(Workload):
    """run_fig5 + run_fig6 at n timed operations per row."""

    modules = ("repro.api", "repro.analysis.experiments")
    sizes = {"full": 400, "tiny": 20}

    def inputs(self, seed):
        # The figures have no random input: the seed only orders the
        # two runners within a rep.
        order = ["fig5", "fig6"]
        random.Random(f"{seed}/perfbench/figures").shuffle(order)
        return {"n": self.n, "order": order}

    def run(self, inputs, recorder):
        return 6 * inputs["n"], {"rows": figure_rows(inputs["n"],
                                                     inputs["order"])}

    def check(self, inputs, outputs):
        rows = outputs["rows"]
        bad = [k for k in FIGURE_ROWS
               if not (math.isfinite(rows[k]) and rows[k] > 0)]
        return [f"row {k} = {rows[k]!r}" for k in bad]


def figure_rows(n: int, order=("fig5", "fig6")) -> dict:
    """The six Fig 5/6 rows (virtual usec) at ``n`` ops per row."""
    from repro.analysis.experiments import run_fig5, run_fig6

    rows = {}
    for fig in order:
        rows.update(run_fig5(n) if fig == "fig5" else run_fig6(n))
    return {k: rows[k] for k in FIGURE_ROWS}


def paper_error_pct(rows: dict) -> float:
    """Largest |sim - paper| / paper over the six rows, in percent."""
    from repro.analysis.experiments import PAPER

    return max(abs(rows[k] - PAPER[k]) / PAPER[k] for k in FIGURE_ROWS) \
        * 100.0


WORKLOADS = {
    "server_poisson": ServerPoisson,
    "server_burst": ServerBurst,
    "window_system": WindowSystem,
    "paper_figures": PaperFigures,
}
