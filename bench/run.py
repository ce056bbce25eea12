"""Benchmark for the ocrs library: one workload per run, closed loop.

    python3 bench/run.py --workload mc-evaluate --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One process, one thread: each op starts when the previous one ends. The run
sets up the workload, runs every warm-up job once untimed, then repeats whole
passes over the workload's jobs until ``--seconds`` would be exceeded. Each
op's output is checked after its pass, outside the timed calls. ``--trace 1`` wraps the
library's layers (see tracer.py) and reports per-layer counters and self
times instead of the end-to-end metrics. ``--workload all`` runs every
workload untraced and traced and prints the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("mc-evaluate", "mc-preselect", "exact")
SETUP_REPEATS = 7
# Median time of host_ref() on a 2-vCPU x86-64 host running CPython
# 3.11. Gated times are scaled by REF_S / (measured probe): other tenants of
# a shared host slow the probe and the library alike.
REF_S = 0.005


def host_ref() -> float:
    """Time a fixed probe that does not use ocrs: two Gauss-Jordan pivots
    on a 6 x 40 Fraction matrix, the arithmetic the exact workloads run,
    which tracked the speed of all three workloads on a shared host more
    closely than a bare interpreter loop did."""
    t0 = time.perf_counter()
    rng = Random(9)
    rows = [[Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6)) for _ in range(40)]
            for _ in range(6)]
    for k in range(2):
        inv = 1 / rows[k][k]
        pivot = [v * inv for v in rows[k]]
        for i in range(len(rows)):
            if i != k:
                f = rows[i][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
    return time.perf_counter() - t0


def run_pass(jobs, rng) -> tuple[list, list]:
    """One op per job with a host probe before the first and after every op.
    Returns [(job, seconds, result or exception)] and the probe times."""
    ops, refs = [], [host_ref()]
    for job in jobs:
        t0 = time.perf_counter()
        try:
            result = job.call(rng)
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            result = exc
        ops.append((job, time.perf_counter() - t0, result))
        refs.append(host_ref())
    return ops, refs


class Run:
    """Timings and check outcomes of one run's timed passes."""

    def __init__(self, workload):
        self.wl = workload
        self.kinds = sorted({job.kind for job in workload.jobs})
        # per pass: {kind: seconds}, raw and host-normalised
        self.raw: list = []
        self.norm: list = []
        self.refs: list = []
        self.op_s: list = []
        self.ops_of: dict = {}
        self.failed_of: dict = {}
        self.errors: list = []

    def record(self, ops, refs) -> None:
        """Host-normalise each op by the mean of the probes that bracket it:
        the host's speed changes within a second, so nearer probes track it
        better than a median over the pass."""
        raw = dict.fromkeys(self.kinds, 0.0)
        norm = dict.fromkeys(self.kinds, 0.0)
        for i, (job, seconds, result) in enumerate(ops):
            raw[job.kind] += seconds
            norm[job.kind] += seconds * 2 * REF_S / (refs[i] + refs[i + 1])
            self.op_s.append(seconds)
            self.ops_of[job.label] = self.ops_of.get(job.label, 0) + 1
            if isinstance(result, Exception):
                detail = "".join(traceback.format_exception_only(result)).strip()
            else:
                detail = job.check(result)
            if detail:
                self.failed_of[job.label] = self.failed_of.get(job.label, 0) + 1
                self.errors.append(f"{job.label}: {detail}")
        self.raw.append(raw)
        self.norm.append(norm)
        self.refs.extend(refs)

    def finish(self) -> None:
        if self.wl.final_check is None:
            return
        for label, detail in self.wl.final_check().items():
            if detail:
                self.failed_of[label] = self.ops_of.get(label, 0)
                self.errors.append(f"{label}: {detail}")

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    @property
    def failed(self) -> int:
        return sum(self.failed_of.values())

    def kind_s(self, kind: str, normalised: bool = True) -> float:
        """Median over passes of the time spent on one kind; kind ``c`` of a
        two-kind workload is the whole pass."""
        passes = self.norm if normalised else self.raw
        return statistics.median(p[kind] if kind in p else sum(p.values()) for p in passes)

    def pass_s(self, normalised: bool = True) -> float:
        return statistics.median(sum(p.values()) for p in (self.norm if normalised else self.raw))


def timed_passes(wl, rng, seconds: float, context=contextlib.nullcontext) -> Run:
    """Whole passes until the next one would end past ``seconds``; at least
    one. Each pass runs inside a fresh ``context()``; its outputs are checked
    after the context has closed."""
    run = Run(wl)
    start = time.perf_counter()
    passes = 0
    while True:
        elapsed = time.perf_counter() - start
        if passes and elapsed + elapsed / passes > seconds:
            break
        with context():
            ops, refs = run_pass(wl.jobs, rng)
        run.record(ops, refs)
        passes += 1
    run.finish()
    return run


def tail(values: list) -> tuple[float, int]:
    """The highest whole percentile with at least 10 ops beyond it and the
    op time there (nearest rank); the maximum and 100 below 11 ops."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100
    pct = 99
    while n - -(-pct * n // 100) < 10:
        pct -= 1
    return xs[-(-pct * n // 100) - 1], pct


def setup_times(workload: str, seed: int) -> list:
    """Set-up seconds of SETUP_REPEATS fresh processes run one after another,
    each host-normalised by probes it runs right after its set-up. Returns
    [(raw seconds, normalised seconds)]."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60, check=True,
        )
        word, raw, probe = proc.stdout.split()
        if word != "ready":
            raise RuntimeError(f"set-up process printed {proc.stdout!r}")
        out.append((float(raw), float(raw) * REF_S / float(probe)))
    return out


def layer_metrics(tracers: list, run: Run) -> dict:
    """Per-layer metrics of one traced pass: counts from the first pass
    (deterministic for a seed), self times as medians over passes."""
    c = tracers[0].counts

    def self_s(name):
        return statistics.median(t.self_s.get(name, 0.0) for t in tracers)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "priors.sample.calls": (c["priors.sample.calls"], "count"),
        "priors.sample.self_s": (self_s("priors.sample"), "s"),
        "sampling.thin.calls": (c["sampling.thin.calls"], "count"),
        "sampling.thin.self_s": (self_s("sampling.thin"), "s"),
        "rng.calls": (c.get("rng.calls", 0), "count"),
        "sampling.prefix.self_s": (self_s("sampling.prefix"), "s"),
        "sampling.shuffle.self_s": (self_s("sampling.shuffle"), "s"),
        "schemes.run.self_s": (self_s("schemes.run"), "s"),
        "schemes.greedy.self_s": (self_s("schemes.greedy"), "s"),
        "schemes.secretary.self_s": (self_s("schemes.secretary"), "s"),
        "matroid.oracle_calls": (c["matroid.independent"] + c["matroid.try_add"], "count"),
        "matroid.try_add.accept_ratio": (
            ratio(c["matroid.try_add.accepted"], c["matroid.try_add"]), "ratio"),
        "matroid.basis.calls": (c["matroid.basis.calls"], "count"),
        "matroid.basis.self_s": (self_s("matroid.basis"), "s"),
        "matroid.span.calls": (c["matroid.span.calls"], "count"),
        "matroid.span.self_s": (self_s("matroid.span"), "s"),
        "harness.count.self_s": (self_s("harness.count"), "s"),
        "preselect.steps": (c.get("preselect.steps", 0), "count"),
        "preselect.samples": (c.get("preselect.samples", 0), "count"),
        "preselect.stats.self_s": (self_s("preselect.stats"), "s"),
        "preselect.exact_prob.calls": (c["preselect.exact_prob.calls"], "count"),
        "preselect.exact_prob.self_s": (self_s("preselect.exact_prob"), "s"),
        "preselect.scan_ratio": (
            ratio(c.get("preselect.steps", 0), c["preselect.exact_prob.calls"]), "ratio"),
        "simplex.solves": (c["simplex.calls"], "count"),
        "simplex.pivots": (c.get("simplex.pivots", 0), "count"),
        "simplex.cells": (c.get("simplex.cells", 0), "count"),
        "simplex.self_s": (self_s("simplex"), "s"),
        "simplex.s_per_pivot": (ratio(self_s("simplex"), c.get("simplex.pivots", 0)), "s"),
        "lp.iterations": (c.get("lp.iterations", 0), "count"),
        "lp.columns": (c["lp.column.calls"], "count"),
        "lp.column_accept_ratio": (
            ratio(c.get("lp.accepted_columns", 0), c["lp.column.calls"]), "ratio"),
        "lp.column.self_s": (self_s("lp.column"), "s"),
        "lp.restricted.self_s": (self_s("lp.restricted"), "s"),
        "oracle.lp_vars": (c.get("oracle.lp_vars", 0), "count"),
        "oracle.enum.self_s": (self_s("oracle.enum"), "s"),
        "oracle.alpha.self_s": (self_s("oracle.alpha"), "s"),
        "oracle.outcomes": (c["oracle.outcomes"], "count"),
        "oracle.exact_bal.self_s": (self_s("oracle.exact_bal"), "s"),
        "host.ref_s": (statistics.median(run.refs), "s"),
        "trace.pass_s": (run.pass_s(), "s"),
    }
    return m


def end_to_end_metrics(run: Run, setups: list) -> tuple[dict, dict]:
    """(gated metrics, further printed metrics). Gated times are
    host-normalised; the printed rates and times are raw wall time."""
    gated = {
        "setup_s": (statistics.median(norm for _, norm in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "kind_a_s": (run.kind_s("a"), "s"),
        "kind_b_s": (run.kind_s("b"), "s"),
        "kind_c_s": (run.kind_s("c"), "s"),
    }
    t, pct = tail(run.op_s)
    shown = {
        "error_rate": (run.failed / run.attempted, "ratio"),
        "op_s.p50": (statistics.median(run.op_s), "s"),
        "op_s.tail": (t, "s"),
        "op_s.tail_percentile": (pct, "%"),
        "ops": (run.attempted, "count"),
        "passes": (len(run.raw), "count"),
        "pass_s": (run.pass_s(), "s"),
        "pass_s.raw": (run.pass_s(normalised=False), "s"),
        "setup_s.raw": (statistics.median(raw for raw, _ in setups), "s"),
        "host.ref_s": (statistics.median(run.refs), "s"),
    }
    for kind, (name, is_rate) in run.wl.kind_names.items():
        raw = run.kind_s(kind, normalised=False)
        if is_rate:
            units = sum(job.units for job in run.wl.jobs if job.kind == kind)
            shown[name] = (units / raw, "1/s")
        else:
            shown[name] = (raw, "s")
    return gated, shown


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")


def result_line(run: Run, metrics: dict) -> str:
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })


def bench(args) -> int:
    import tracer as tracing
    import workloads

    wl = workloads.build(args.workload)
    warm_rng = Random(f"warmup-{args.seed}")
    for job in wl.warmup:
        job.call(warm_rng)

    if not args.trace:
        run = timed_passes(wl, Random(args.seed), args.seconds)
        gated, shown = end_to_end_metrics(run, setup_times(args.workload, args.seed))
        print_table(f"{args.workload} seed={args.seed} end to end (gated times host-normalised)", gated)
        print_table("  raw wall time and counts", shown)
        out = gated
    else:
        rng = tracing.CountingRandom(args.seed, {"rng.calls": 0})
        tracers = []

        def traced():
            tr = tracing.Tracer()
            tr.counts["rng.calls"] = 0
            rng.counts = tr.counts
            tracers.append(tr)
            patches = tracing.Patches()
            tracing.install(tr, patches)
            return patches

        run = timed_passes(wl, rng, args.seconds, traced)
        out = layer_metrics(tracers, run)
        print_table(f"{args.workload} seed={args.seed} per layer, per traced pass", out)
    for err in run.errors[:5]:
        print(f"FAILED {err}", file=sys.stderr)
    print(result_line(run, out))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced; prints both and the overhead."""
    status = 0
    for name in WORKLOADS:
        got = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
            )
            print(proc.stdout, end="")
            status = status or proc.returncode
            for line in proc.stdout.splitlines():
                fields = line.split()
                if fields[:1] in (["pass_s"], ["trace.pass_s"]):
                    got[fields[0]] = float(fields[1])
        if len(got) == 2:
            over = got["trace.pass_s"] - got["pass_s"]
            print(f"{name} tracing overhead: {over:.6g} s per pass "
                  f"({100 * over / got['pass_s']:.1f}% of the untraced pass)")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    if not (SRC / "ocrs" / "__init__.py").is_file():
        print(f"ocrs sources not found at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import ocrs

    if Path(ocrs.__file__).resolve().parent != SRC / "ocrs":
        print(f"imported ocrs from {ocrs.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import workloads

        workloads.build(args.workload)
        seconds = time.perf_counter() - started
        print("ready", seconds, statistics.median(host_ref() for _ in range(3)), flush=True)
        return 0
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
