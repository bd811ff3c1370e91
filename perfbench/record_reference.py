#!/usr/bin/env python3
"""Record the correctness reference of the benchmark.

    python3 perfbench/record_reference.py

Runs every op of `catalog-verify` and `alpha-power` once and writes its exit
code and the SHA-256 of its byte-exact `--json` stdout to
perfbench/reference.json.  The benchmark counts an op whose output differs
from this record as failed, so record only at a commit whose verdicts,
witnesses and assumption strings are known to be right.
"""

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads  # noqa: E402


def main():
    home = os.getcwd()
    reference = {}
    try:
        for workload in ("catalog-verify", "alpha-power"):
            _, cli, ops = run.set_up(workload, 0, reference={})
            entries = {}
            for op in sorted(ops, key=lambda op: op.key):
                code, stdout = workloads.invoke(cli, op.calls[0])
                if code not in (0, 1):
                    raise SystemExit("%s exited %d" % (op.key, code))
                entries[op.key] = {"exit": code,
                                   "stdout_sha256": workloads.digest(stdout)}
            reference[workload] = entries
    finally:
        os.chdir(home)
        shutil.rmtree(run.WORK, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s (%d ops)" % (run.REFERENCE,
                                 sum(map(len, reference.values()))))


if __name__ == "__main__":
    main()
