#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size (well under a minute).

    python3 perfbench/selftest.py

Checks that:
  * the twist-sweep generator writes byte-identical files for one seed and
    different files for another;
  * every workload runs a few ops correctly, traced and untraced, and prints
    every metric BENCHMARK.json names;
  * two traced runs of one seed give identical call counts;
  * an op whose output does not match its reference digest is counted as
    failed, not passed;
  * run.py exits non-zero, printing no result, where the program's sources
    are missing.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 3


def check(condition, message):
    if not condition:
        raise SystemExit("FAIL: " + message)
    print("ok   " + message, flush=True)


def input_files(seed):
    home = os.getcwd()
    try:
        run.set_up("twist-sweep", seed)
        files = {}
        for name in sorted(os.listdir("tables")):
            with open(os.path.join("tables", name), "rb") as fh:
                files[name] = fh.read()
        return files
    finally:
        os.chdir(home)


def test_generator():
    first, again, other = input_files(7), input_files(7), input_files(8)
    check(len(first) == workloads.TWIST_TABLES,
          "twist-sweep writes %d tables" % workloads.TWIST_TABLES)
    check(first == again, "same seed, byte-identical input files")
    check(first != other, "different seed, different input files")


def test_workloads(spec):
    for workload in workloads.WORKLOADS:
        result, _ = run.measure(workload, 1, 0, 0, limit=TINY)
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] == TINY * run.MIN_PASSES,
              "%s: %d ops correct in %d passes"
              % (workload, TINY, run.MIN_PASSES))
        names = {m["name"] for m in spec["end_to_end"]}
        check(set(result["metrics"]) == names,
              "%s: every end-to-end metric reported" % workload)
        traced, _ = run.measure(workload, 1, 0, 1, limit=TINY)
        again, _ = run.measure(workload, 1, 0, 1, limit=TINY)
        names = {m["name"] for m in spec["per_layer"]}
        check(traced["correct"] and set(traced["metrics"]) == names,
              "%s: every per-layer metric reported" % workload)
        counts = {n: m["value"] for n, m in traced["metrics"].items()
                  if n.endswith(".calls")}
        check(counts == {n: again["metrics"][n]["value"] for n in counts},
              "%s: traced call counts repeat exactly" % workload)


def test_wrong_digest():
    home = os.getcwd()
    try:
        _, _, ops = run.set_up("catalog-verify", 1)
    finally:
        os.chdir(home)
    reference = run.load_reference()
    entry = reference["catalog-verify"][ops[0].key]
    entry["stdout_sha256"] = "0" * 64
    result, lines = run.measure("catalog-verify", 1, 0, 0, limit=TINY,
                                reference=reference)
    check(not result["correct"] and result["failed"] == run.MIN_PASSES,
          "a wrong reference digest counts its op as failed in every pass")
    check(any(line.split()[:2] == ["failed_ops_frac", "%.6f" % (1 / TINY)]
              for line in lines), "failed_ops_frac reports 1 of %d" % TINY)


def test_without_sources():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(run.WORK, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", "twist-sweep", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without sources: exit %d and no result" % proc.returncode)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    test_generator()
    test_workloads(spec)
    test_wrong_digest()
    test_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
