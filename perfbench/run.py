#!/usr/bin/env python3
"""Benchmark of the `homalg` command, run in-process from a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports homalgebra from the
checkout's `src/` and nothing else.  One process, one client, closed loop:
each op starts when the previous one has returned.  Workloads are defined in
`workloads.py`; `BENCHMARK.json` at the checkout root lists them and the
metrics.

--trace 0 runs whole passes over the workload's ops, each in a new seeded
order, at least MIN_PASSES of them and on until the passes have taken S
seconds, and reports the end-to-end metrics.  Whole passes keep the mix of
ops the same in every run.  Op latencies are gated in loops, the mean
time of `calibration_loop` over the same pass (see Runs and README.md), and
printed in milliseconds too.  Before each pass it sets the workload up
SETUPS_PER_PASS times (each a fresh import, fresh input files and a fresh
reference load) and reports the median set-up time.

--trace 1 runs one untraced pass and then one traced pass (fixed work, so
call counts repeat exactly for a seed) and reports the per-layer metrics,
with the tracing overhead as the untraced over the traced ops per kloop.

Every op's output is checked (see workloads.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the lines
before it give each metric with its unit and the run's context.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "homalgebra")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
MIN_PASSES = 3
SETUPS_PER_PASS = 5
LOOP_REPEATS = 2
LOOPS_PER_PASS = 36

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402


# --- the program --------------------------------------------------------------


def forget_program():
    """Unload homalgebra and collect the garbage that leaves, so that the
    next import starts afresh and no collection of old state lands in it."""
    for name in [n for n in sys.modules
                 if n == "homalgebra" or n.startswith("homalgebra.")]:
        del sys.modules[name]
    gc.collect()


def import_program():
    """Import homalgebra from the checkout; returns (cli, catalog)."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("homalgebra.cli")
    if os.path.dirname(os.path.abspath(cli.__file__)) != PACKAGE:
        raise RuntimeError("homalgebra was imported from %s, not from %s"
                           % (cli.__file__, PACKAGE))
    return cli, importlib.import_module("homalgebra.catalog")


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def set_up(workload, seed, reference=None):
    """One set-up in the emptied work directory, which is the current
    directory afterwards.  Returns (seconds, cli, ops).

    The seconds cover the program's part: a fresh import, the catalog
    tables the program emits, the reference.  The tables the benchmark
    generates are written before the clock starts: their file-system time
    is not the program's, and on a shared host it varied threefold between
    minutes.
    """
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.chdir(WORK)
    workloads.write_inputs(workload, seed)
    forget_program()
    started = time.perf_counter()
    cli, catalog = import_program()
    if reference is None:
        reference = load_reference()
    ops = workloads.setup(workload, cli, catalog, seed,
                          reference.get(workload, {}))
    return time.perf_counter() - started, cli, ops


# --- measuring ------------------------------------------------------------------


def calibration_loop():
    """Fixed pure-Python work shaped like the program's scalar arithmetic:
    a product of two sparse polynomials held as dicts of Fractions."""
    p = {(i, j): Fraction(i - j, j + 1) for i in range(4) for j in range(3)}
    q = {(j, i): Fraction(j + 1, i + 2) for i in range(3) for j in range(4)}
    for _ in range(LOOP_REPEATS):
        out = {}
        for (a, b), c in p.items():
            for (d, e), f in q.items():
                key = (a + d, b + e)
                total = out.get(key, 0) + c * f
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
    return out


class Runs:
    """Latencies and outcomes of every op run, keyed by op.

    After each op the calibration loop runs, outside the op's time, often
    enough for LOOPS_PER_PASS runs a pass.  The mean loop time of a pass is
    that pass's unit of host speed, and `relative` holds each latency in
    that unit.  The mean, not the median: single loop times split into fast
    and slow modes, and an op that lasts longer than a loop averages over
    both, as the mean does.
    """

    def __init__(self):
        self.latency = {}     # op key -> latency of each run, seconds
        self.relative = {}    # op key -> latency of each run, loops
        self.has_fails = {}   # op key -> its report has a `fails` verdict
        self.loop_s = []      # mean loop time of each pass
        self.errors = []
        self.attempted = 0
        self.passes = 0
        self.wall = 0.0

    def run(self, cli, ops, tracer=None):
        started = time.perf_counter()
        done, loops = [], []
        for n, op in enumerate(ops):
            if tracer is not None:
                tracer.op = n
            t0 = time.perf_counter()
            outcome = workloads.run_op(cli, op)
            done.append((op.key, time.perf_counter() - t0))
            for _ in range(math.ceil(LOOPS_PER_PASS / len(ops))):
                t1 = time.perf_counter()
                calibration_loop()
                loops.append(time.perf_counter() - t1)
            self.has_fails[op.key] = outcome.has_fails
            self.attempted += 1
            if not outcome.ok:
                self.errors.append("%s: %s" % (op.key, outcome.error))
        unit = statistics.fmean(loops)
        for key, latency in done:
            self.latency.setdefault(key, []).append(latency)
            self.relative.setdefault(key, []).append(latency / unit)
        self.loop_s.append(unit)
        self.wall += time.perf_counter() - started
        self.passes += 1

    @property
    def ops_per_kloop(self):
        return 1000 * self.attempted / sum(map(sum, self.relative.values()))


def measure(workload, seed, seconds, trace, limit=None, reference=None):
    """Set up and run one workload; returns (result line, report lines).
    `limit` keeps only the first ops of a pass; `reference` replaces the
    recorded one."""
    home = os.getcwd()
    try:
        if trace:
            _, cli, ops = set_up(workload, seed, reference)
            return _traced(cli, ops[:limit])
        order = random.Random(seed)
        setups, runs = [], Runs()
        while runs.passes < MIN_PASSES or runs.wall < seconds:
            for _ in range(SETUPS_PER_PASS):
                elapsed, cli, ops = set_up(workload, seed, reference)
                setups.append(elapsed)
            ops = ops[:limit]
            order.shuffle(ops)
            runs.run(cli, ops)
        return _untraced(setups, runs)
    finally:
        os.chdir(home)
        shutil.rmtree(WORK, ignore_errors=True)


def _summary(latencies, has_fails):
    """Statistics of per-op medians of `latencies` (op key -> one value per
    pass); `hold` and `fail` are None where no op holds or fails."""
    typical = {key: statistics.median(v) for key, v in latencies.items()}
    times = list(typical.values())
    hold = [t for key, t in typical.items() if not has_fails[key]]
    fail = [t for key, t in typical.items() if has_fails[key]]
    return {
        "total": sum(times),
        "p50": statistics.median(times),
        "p90": (statistics.quantiles(times, n=10, method="inclusive")[8]
                if len(times) > 1 else times[0]),
        "hold": statistics.median(hold) if hold else None,
        "fail": statistics.median(fail) if fail else None,
        "hold_ops": len(hold),
        "fail_ops": len(fail),
    }


def _untraced(setups, runs):
    # Stretches of a run on a shared host ran up to 1.7x slower than others,
    # lasting from milliseconds to minutes.  So an op's latency is the median
    # over passes of its latency in loops (see Runs): between runs these
    # statistics spread several times less than the same ones in seconds.
    rel = _summary(runs.relative, runs.has_fails)
    sec = {k: v if k.endswith("_ops") or v is None else 1000 * v
           for k, v in _summary(runs.latency, runs.has_fails).items()}
    n = len(runs.relative)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_kloop": (1000 * n / rel["total"], "1/kloop"),
        "op_p50_loops": (rel["p50"], "loops"),
        "op_p90_loops": (rel["p90"], "loops"),
        "hold_op_p50_loops": (rel["hold"], "loops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    info = {
        "fail_op_p50_loops": (rel["fail"], "loops"),
        "loop_ms": (1000 * statistics.fmean(runs.loop_s), "ms"),
        "ops_per_s": (1000 * n / sec["total"], "1/s"),
        "op_p50_ms": (sec["p50"], "ms"),
        "op_p90_ms": (sec["p90"], "ms"),
        "hold_op_p50_ms": (sec["hold"], "ms"),
        "fail_op_p50_ms": (sec["fail"], "ms"),
        "failed_ops_frac": (len(runs.errors) / runs.attempted, "ratio"),
    }
    counts = {"ops": n, "passes": runs.passes, "attempted": runs.attempted,
              "hold_ops": rel["hold_ops"], "fail_ops": rel["fail_ops"],
              "setups": len(setups), "timed_wall_s": runs.wall}
    return _result(runs, metrics, info, counts)


def _traced(cli, ops):
    plain = Runs()
    plain.run(cli, ops)
    tracer = tracing.Tracer()
    traced = Runs()
    tracer.install()
    try:
        traced.run(cli, ops, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.summary()

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    metrics = {}
    for name, stats in (
            ("scalars.normalize", ("calls", "self_s")),
            ("scalars.poly_gcd", ("calls", "self_s")),
            ("scalars.exact_div", ("calls", "self_s")),
            ("algebra.mul", ("calls", "self_s")),
            ("algebra.apply_map", ("calls", "self_s")),
            ("algebra.compose", ("calls", "self_s")),
            ("algebra.is_endomorphism", ("calls", "total_s")),
            ("algebra.yau_twist", ("calls", "total_s")),
            ("identities.check.basis", ("calls", "self_s")),
            ("identities.check.generic", ("calls", "self_s")),
            ("identities.evaluate", ("calls", "self_s")),
            ("fileio.load", ("calls", "total_s")),
            ("fileio.save", ("calls", "total_s")),
            ("parser.parse_identity", ("calls", "total_s")),
            ("cli.main", ("calls", "self_s"))):
        calls, total, own = span(name)
        for stat in stats:
            value = {"calls": calls, "total_s": total, "self_s": own}[stat]
            metrics["%s.%s" % (name, stat)] = (
                value, "count" if stat == "calls" else "s")
    for counter in ("parser.parse_scalar_expr", "scalars.Scalar.mul",
                    "scalars.Scalar.add", "scalars.Polynomial.mul"):
        metrics[counter + ".calls"] = (tracer.counts[counter], "count")
    gcd_calls = span("scalars.poly_gcd")[0]
    checks = span("identities.check.basis")[0] + \
        span("identities.check.generic")[0]
    metrics["scalars.poly_gcd.nontrivial_frac"] = (
        tracer.gcd_nontrivial / gcd_calls if gcd_calls else 0.0, "ratio")
    metrics["identities.evaluate_per_check"] = (
        span("identities.evaluate")[0] / checks if checks else 0.0, "ratio")
    metrics["trace.untraced_ops_per_kloop"] = (plain.ops_per_kloop, "1/kloop")
    metrics["trace.traced_ops_per_kloop"] = (traced.ops_per_kloop, "1/kloop")
    metrics["trace.slowdown"] = (plain.ops_per_kloop / traced.ops_per_kloop,
                                 "ratio")
    info = {}
    counts = {"ops": traced.attempted, "spans": len(tracer.span_start),
              "poly_gcd_nontrivial": tracer.gcd_nontrivial,
              "checks": checks, "missing": tracer.missing}
    traced.attempted += plain.attempted
    traced.errors += plain.errors
    return _result(traced, metrics, info, counts)


def _result(runs, metrics, info, counts):
    lines = ["%-36s %16s %s" % (name, "n/a" if value is None
                                 else "%.6f" % value, unit)
             for name, (value, unit) in list(metrics.items()) + list(info.items())]
    lines.append("samples: %s" % json.dumps(counts, sort_keys=True))
    for error in runs.errors[:10]:
        lines.append("FAILED %s" % error)
    result = {
        "correct": not runs.errors,
        "attempted": runs.attempted,
        "failed": len(runs.errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


# --- context ----------------------------------------------------------------------


def context(workload, seed, seconds, trace):
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    src = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": platform.python_version(),
            "git_rev": rev, "src_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print("error: no homalgebra sources at %s; run from the root of a "
              "checkout" % PACKAGE, file=sys.stderr)
        return 2
    ctx = context(args.workload, args.seed, args.seconds, args.trace)
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    print("context: %s" % json.dumps(ctx, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
