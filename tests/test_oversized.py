"""Oversized inputs through every subcommand: each invocation exits 2 with an
`error:` line, or finishes within a stated bound.

The inputs are a `dim` far larger than its basis list, a large basis
(dim 30, whose identity map is quadratic in it, and dim 200 for the
certificates alone), literals at the 1000-digit limit and one past it, and
a file with 2000 parameters, whose 2000-variable monomial and 2000-term sum
go to wide monomial layouts.  Each input runs in its own subprocess under a timeout,
so that a hang fails the test instead of stalling the suite.  A last case
squares a sum of 600 parameters (180 300 terms) under a cap on the
child's address space, so that a monomial key that grows with the number
of names in its layout, not in the monomial, fails it; another squares a
sum of 1500 parameters under a cap too small for it, and must exit 2 with
an `error:` line, not a traceback.  The gcd of two sums of 1000 parameters
runs 1000 levels deep and must answer as before, and a residual over the
square of a sum of 400 parameters must come within the bound.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

# seconds one invocation may take; the slowest here (verify and
# check-morphism of the 2000-parameter file) take about 0.2 s on 2 CPUs
BOUND = 10
SUBPROCESS_TIMEOUT = 120

_BIG = "9" * 1000
_PARAMS = ["p%d" % i for i in range(1, 2001)]


def _doc(basis, params, mu, maps, twist=None):
    doc = {"name": "oversized", "dim": len(basis), "basis": basis,
           "params": [{"name": p} for p in params], "mu": mu, "maps": maps}
    if twist:
        doc["twist"] = twist
    return doc


def _identity(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _large_basis(n=30):
    basis = ["e%d" % i for i in range(n)]
    mu = [{"i": "e0", "j": b, "value": {b: "1"}} for b in basis]
    return _doc(basis, [], mu, {"m": _identity(n)}, twist="m")


INPUTS = {
    # a dim far beyond its basis list is refused before anything is built
    "dim_beyond_basis": (dict(_large_basis(2), dim=10 ** 12), "refused"),
    "large_basis": (_large_basis(), "finishes"),
    "digits_at_limit": (_doc(
        ["e", "f"], ["a"],
        [{"i": "e", "j": "e", "value": {"e": _BIG + "*a", "f": "1/" + _BIG}},
         {"i": "f", "j": "e", "value": {"f": "-" + _BIG}}],
        {"m": [[_BIG, "0"], ["a", "1/" + _BIG]]}), "finishes"),
    "digits_past_limit": (_doc(
        ["e", "f"], [], [{"i": "e", "j": "e", "value": {"e": _BIG + "9"}}],
        {"m": _identity(2)}), "refused"),
    # products stay single monomials, and the 2000-term sum in m only
    # meets the zero products of f: nothing squares it (see the last test)
    "params_2000": (_doc(
        ["e", "f"], _PARAMS,
        [{"i": "e", "j": "e", "value": {"e": "*".join(_PARAMS)}}],
        {"m": [["1", "0"], ["0", " + ".join(_PARAMS)]], "t": _identity(2)},
        twist="t"), "finishes"),
}

_SCRIPT = """
import contextlib, io, json, sys, time
from homalgebra.cli import main

path = sys.argv[1]
commands = [
    ["verify", path], ["verify", path, "--json"],
    ["verify", path, "--identity", "hom_associative", "--strategy", "basis"],
    ["verify", path, "--expr", "mu(al^32(x), y) = al^32(mu(x, y))"],
    ["twist", path, "--map", "m", "-o", path + ".tw"],
    ["twist", path, "--map", "m", "-o", path + ".twf", "--force"],
    ["untwist", path, "-o", path + ".un"],
    ["polarize", path, "-o", path + ".po"],
    ["opposite", path, "-o", path + ".op"],
    ["check-endo", path, "--map", "m"],
    ["check-morphism", path, path, "--map", "m"],
    ["check-unit", path, "--element", json.load(open(path))["basis"][0]],
]
# the subcommands named after the path, or all of them
commands = [c for c in commands if c[0] in sys.argv[2:] or not sys.argv[2:]]
results = []
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([argv[0], code, err.getvalue(),
                    time.perf_counter() - started])
print(json.dumps(results))
"""


def _run_script(tmp_path, name, doc, *subcommands):
    """The [subcommand, exit code, stderr, seconds] of each command of
    _SCRIPT on doc, or of those of the named subcommands."""
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(path), *subcommands],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=SUBPROCESS_TIMEOUT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", list(INPUTS))
def test_every_subcommand_exits_two_or_finishes(name, tmp_path):
    doc, expect = INPUTS[name]
    results = _run_script(tmp_path, name, doc)
    assert len(results) == 12
    for command, code, err, seconds in results:
        if expect == "refused":
            assert code == 2 and err.startswith("error: "), (command, err)
        else:
            # a verdict (0 or 1), or a documented refusal such as an
            # untwist of a map that is not invertible
            assert code in (0, 1) or (code == 2 and err.startswith("error: ")), (
                command, code, err)
            assert "Traceback" not in err, (command, err)
        assert seconds < BOUND, (command, seconds)


# A certificate binds generic elements and computes its residual once, so
# on a 200-element basis each command takes 0.1-0.3 s; a scan of the
# 40 000 basis pairs took 17-22 s.
def test_certificates_on_a_200_element_basis(tmp_path):
    results = _run_script(tmp_path, "large_basis_200", _large_basis(200),
                          "check-endo", "check-morphism", "twist")
    assert [r[0] for r in results] == ["twist", "twist", "check-endo",
                                       "check-morphism"]
    for command, code, err, seconds in results:
        assert code == 0 and err == "", (command, code, err)
        assert seconds < BOUND, (command, seconds)


# The square of a sum of n parameters has n(n+1)/2 terms of two variables
# each.  A twist by diag(1, p1 + ... + pn) squares it through al^2 in the
# default suite; with n = 600 that takes about 2 s and 110 MB, while keys
# with a field for each of the 600 names need over 700 MB.
ADDRESS_SPACE = 512 << 20
_SUM_TERMS = 600


def _verify_twisted_by_a_sum(tmp_path, terms, address_space):
    """`homalg verify` in a child under an address-space cap, on a file
    twisted by diag(1, p1 + ... + p<terms>)."""
    params = ["p%d" % i for i in range(1, terms + 1)]
    doc = _doc(["e", "f"], params,
               [{"i": "e", "j": "e", "value": {"e": "*".join(params)}}],
               {"t": [["1", "0"], ["0", " + ".join(params)]]}, twist="t")
    path = tmp_path / "twisted_by_a_sum.json"
    path.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parent.parent / "src"

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "homalgebra.cli", "verify", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=SUBPROCESS_TIMEOUT, preexec_fn=cap)


def test_a_squared_sum_of_many_parameters_fits_in_memory(tmp_path):
    done = _verify_twisted_by_a_sum(tmp_path, _SUM_TERMS, ADDRESS_SPACE)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "hom_jordan " in done.stdout and " holds " in done.stdout


# The square of a sum of 1500 parameters has 1 125 750 terms, far more
# than 100 MB hold; a start-up of the command takes about 21 MB.  The
# child runs out of memory within a few seconds.
SMALL_ADDRESS_SPACE = 100 << 20


def test_running_out_of_memory_exits_two(tmp_path):
    done = _verify_twisted_by_a_sum(tmp_path, 1500, SMALL_ADDRESS_SPACE)
    assert done.returncode == 2, done.stderr[-2000:]
    assert done.stderr == "error: the computation ran out of memory\n"


# Two constants over the sum S of 1000 names, 1/S + 1/(S + 1): the sum
# takes poly_gcd(S, S + 1), which sets one name at a time, 1000 levels
# deep, so a gcd that recursed per level would overflow Python's stack.
# The report, whose assumption is S*(S + 1) multiplied out (6.9 MB), is
# pinned by its digest; the whole command takes about 11 s.
_MANY_NAMES = ["p%d" % i for i in range(1, 1001)]
_MANY_NAMES_DIGEST = (
    "a3f75e0820cbd9f971715084276fe55bc7840dce0afb2425b717e2059f4565ce")


def test_a_gcd_over_a_thousand_names(tmp_path):
    total = " + ".join(_MANY_NAMES)
    doc = _doc(["e", "f"], _MANY_NAMES, [{"i": "e", "j": "e", "value": {
        "e": "1/(%s) + 1/(%s + 1)" % (total, total)}}], {})
    (tmp_path / "many_names.json").write_text(json.dumps(doc))
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "homalgebra.cli", "verify", "many_names.json",
         "--identity", "commutative", "--json"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, timeout=SUBPROCESS_TIMEOUT)
    assert done.returncode == 0, done.stderr[-2000:]
    assert b"Traceback" not in done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == _MANY_NAMES_DIGEST


# e*f = 1/S e and f*e = 1/(S + 1) e over the sum S of 400 names: the
# commutator's residual is 1/(S^2 + S), and reducing it takes the gcd of a
# 2-term polynomial with that 80 600-term denominator.  The gcd sets the
# variables of the operand with fewer terms first, so that gcd is one
# level deep, not 400 levels over the large operand: about 1.5 s, against
# 14 s when the gcd set the earliest variable of either operand first.
def test_a_residual_over_a_squared_sum(tmp_path):
    names = _MANY_NAMES[:400]
    total = " + ".join(names)
    doc = _doc(["e", "f"], names, [
        {"i": "e", "j": "f", "value": {"e": "1/(%s)" % total}},
        {"i": "f", "j": "e", "value": {"e": "1/(%s + 1)" % total}}], {})
    path = tmp_path / "squared_sum.json"
    path.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parent.parent / "src"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "homalgebra.cli", "verify", str(path),
         "--identity", "commutative", "--json"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=SUBPROCESS_TIMEOUT)
    seconds = time.perf_counter() - started
    assert done.returncode == 1, done.stderr[-2000:]
    (check,) = json.loads(done.stdout)["checks"]
    assert check["verdict"] == "fails" and check["witness"]["at"] == ["e", "f"]
    residual = check["witness"]["residual"]
    assert residual.startswith("(1)/(p1^2 + 2*p1*p2 + ")
    # S^2 + S has 400*401/2 + 400 terms, all positive
    assert residual.count(" + ") == 80599 and " - " not in residual
    assert seconds < BOUND, seconds
