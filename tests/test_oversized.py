"""Oversized inputs through every subcommand: each invocation exits 2 with an
`error:` line, or finishes within a stated bound.

The inputs are a `dim` far larger than its basis list, a large basis
(dim 30, whose identity map and certificates are quadratic and cubic in
it), literals at the 1000-digit limit and one past it, and a file with
2000 parameters, whose 2000-variable monomial and 2000-term sum go to wide
monomial layouts.  Each input runs in its own subprocess under a timeout,
so that a hang fails the test instead of stalling the suite.  A last case
squares a sum of 600 parameters (180 300 terms) under a cap on the
child's address space, so that a monomial key that grows with the number
of names in its layout, not in the monomial, fails it; another squares a
sum of 1500 parameters under a cap too small for it, and must exit 2 with
an `error:` line, not a traceback.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

# seconds one invocation may take; the slowest here (check-endo and
# check-morphism at dim 30) take about 0.4 s on 2 CPUs
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


@pytest.mark.parametrize("name", list(INPUTS))
def test_every_subcommand_exits_two_or_finishes(name, tmp_path):
    doc, expect = INPUTS[name]
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=SUBPROCESS_TIMEOUT)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
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
