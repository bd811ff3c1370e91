#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--seconds 20]
                                 [--trace 0|1] [--out FILE]

Runs `run.py` once per workload and seed, one run at a time, and prints for
every metric run.py prints, gated or not, its median, first and third
quartile and the spread (Q3 - Q1) as a share of the median, computed with
`statistics.quantiles(values, n=4)`.
With --out, writes the runs and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results):
    values, units = {}, {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        out[name] = {"unit": units[name], "median": median, "q1": q1,
                     "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                     "values": vals}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results, contexts = [], []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            contexts.append(json.loads(lines[0].partition(": ")[2]))
            result = json.loads(lines[-1])
            for line in lines[1:]:   # printed, ungated metrics too
                name, value, unit = (line.split() + ["", "", ""])[:3]
                if name.startswith("samples:"):
                    break
                if value != "n/a" and name not in result["metrics"]:
                    result["metrics"][name] = {"value": float(value),
                                               "unit": unit, "gated": False}
            results.append(result)
            print("%s seed %d: %s" % (workload, seed, lines[-1]), flush=True)
        summary = summarise(results)
        report["workloads"][workload] = {
            "context": contexts[0], "seeds": seeds_of(args.seeds),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summary}
        for name, s in summary.items():
            print("  %-36s median %14.6f  q1 %14.6f  q3 %14.6f  spread %.4f"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"]),
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
