"""ci/tier1_gate.py on small JUnit reports: it passes only when the failing
tests are exactly the four by-design acceptance failures."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "ci",
                     "tier1_gate.py")
_spec = importlib.util.spec_from_file_location("tier1_gate", _PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

_FOUR = ["test_criterion_03_endomorphism_certificates",
         "test_criterion_04_twist_theorem_tables",
         "test_criterion_07_polarization",
         "test_criterion_08_jordan_twist"]


def _report(tmp_path, cases):
    """A JUnit report of (classname, name, outcome) cases."""
    body = []
    for classname, name, outcome in cases:
        inner = {"passed": "", "failed": "<failure message='x'/>",
                 "error": "<error message='x'/>",
                 "skipped": "<skipped message='x'/>"}[outcome]
        body.append("<testcase classname='%s' name='%s'>%s</testcase>"
                    % (classname, name, inner))
    path = tmp_path / "tier1.xml"
    path.write_text("<testsuites><testsuite>%s</testsuite></testsuites>"
                    % "".join(body))
    return str(path)


def _cases(**outcomes):
    cases = [("tests.test_acceptance", n, outcomes.get(n, "failed"))
             for n in _FOUR]
    cases.append(("tests.test_identities.TestCheck", "test_ok", "passed"))
    return cases


def test_exactly_the_four_passes(tmp_path):
    assert gate.main(["gate", _report(tmp_path, _cases())]) == 0


@pytest.mark.parametrize("extra", ["failed", "error"])
def test_another_failure_fails(tmp_path, extra):
    cases = _cases() + [("tests.test_cli", "test_new", extra)]
    assert gate.main(["gate", _report(tmp_path, cases)]) == 1


def test_a_collection_error_fails(tmp_path):
    # --continue-on-collection-errors reports a module that does not import
    # as an erroring case
    cases = _cases() + [("", "tests.test_broken", "error")]
    assert gate.main(["gate", _report(tmp_path, cases)]) == 1


@pytest.mark.parametrize("outcome", ["passed", "skipped"])
def test_a_by_design_failure_that_stops_failing_fails(tmp_path, outcome):
    cases = _cases(test_criterion_07_polarization=outcome)
    assert gate.main(["gate", _report(tmp_path, cases)]) == 1


def test_an_unreadable_report_exits_two(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<testsuites>")
    assert gate.main(["gate", str(bad)]) == 2
    assert gate.main(["gate", str(tmp_path / "missing.xml")]) == 2
