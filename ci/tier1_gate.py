#!/usr/bin/env python3
"""The tier-1 gate: pass when the failing tests are exactly the four
acceptance criteria that fail by design.

    python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python ci/tier1_gate.py tier1.xml

Criteria 3, 4, 7 and 8 of tests/test_acceptance.py assert claims of the
catalog's source tables that exact computation refutes, so they fail and
print their defect (see that module's docstring).  Any other failing or
erroring test, a collection error included, is a regression, and so is one
of the four passing: it would mean the program's answer changed.  Reads
pytest's JUnit XML with the standard library; exits 0 on a pass, 1 on a
regression and 2 on a report it cannot read.
"""

import sys
import xml.etree.ElementTree as ET

BY_DESIGN = frozenset(
    "tests.test_acceptance." + name for name in (
        "test_criterion_03_endomorphism_certificates",
        "test_criterion_04_twist_theorem_tables",
        "test_criterion_07_polarization",
        "test_criterion_08_jordan_twist",
    ))


def outcomes(path):
    """{test id: "failed" | "error" | "skipped" | "passed"} of a JUnit XML
    report; a test id is its classname and name joined by a dot."""
    out = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        test = "%s.%s" % (case.get("classname", ""), case.get("name", ""))
        for tag in ("failure", "error", "skipped"):
            if case.find(tag) is not None:
                out[test] = {"failure": "failed"}.get(tag, tag)
                break
        else:
            out[test] = "passed"
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        results = outcomes(argv[1])
    except (OSError, ET.ParseError) as exc:
        print("tier1-gate: cannot read %s: %s" % (argv[1], exc), file=sys.stderr)
        return 2
    failing = {t for t, r in results.items() if r in ("failed", "error")}
    counts = {}
    for r in results.values():
        counts[r] = counts.get(r, 0) + 1
    print("tier1-gate: %s" % ", ".join(
        "%d %s" % (n, r) for r, n in sorted(counts.items())))
    unexpected = sorted(failing - BY_DESIGN)
    missing = sorted(BY_DESIGN - failing)
    for test in unexpected:
        print("tier1-gate: regression, %s %s" % (test, results[test]))
    for test in missing:
        print("tier1-gate: by-design failure %s is %s"
              % (test, results.get(test, "missing")))
    if unexpected or missing:
        return 1
    print("tier1-gate: ok, only the four by-design failures")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
