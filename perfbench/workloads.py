"""The three benchmark workloads: their inputs, their ops and the check of
every op's output.

An op is one or two in-process `homalg` invocations (`cli.main(argv)`) made
the way the console script makes them.  Every argv names files relative to
the work directory, so the byte-exact `--json` output, which quotes the file
name, does not depend on where the checkout lives.

Set-up writes the input files of a workload into the work directory (the
current directory while set-up and measuring run) and returns its ops.  The
benchmark writes the twist-sweep tables itself; the program emits the
catalog tables.  The inputs follow from the seed alone: `catalog-verify`
and `alpha-power` run a fixed set of ops in a seeded order, `twist-sweep`
runs on tables a seeded generator writes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

WORKLOADS = ("catalog-verify", "twist-sweep", "alpha-power")

# the alpha-power tables twist by alpha1, an endomorphism of the untwisted
# product, so `mu(al^k x, al^k y) = al^k mu(x, y)` holds for every k
ALPHA_TABLES = ("alt4_mu1_twist_alpha1", "alt4_mu2_twist_alpha1")
ALPHA_POWERS = tuple(range(2, 8))
ALPHA_EXPR = "mu(al^{k}(x), al^{k}(y)) = al^{k}(mu(x, y))"

TWIST_TABLES = 200
TWIST_FAMILIES = ("truncated", "group", "zero")
TWIST_DIMS = (2, 3, 4)
# criterion 11: the Yau twist of an associative algebra by an endomorphism
# is Hom-associative, hence also left and right Hom-alternative
TWIST_IDENTITIES = ("hom_associative", "left_hom_alternative",
                    "right_hom_alternative")
HOLDING = ("holds", "holds-under-assumptions")


class Op:
    """One closed-loop request: the `homalg` argv lists it runs in order."""

    def __init__(self, calls, twist=False):
        self.calls = calls
        self.twist = twist   # checked against the twist theorem
        self.key = " ".join(calls[0])
        self.expect = None   # otherwise against this reference entry


class Outcome:
    """What an op returned: whether it was correct and whether it reported a
    `fails` verdict; `error` says why an incorrect op was incorrect."""

    def __init__(self, ok, has_fails, error=""):
        self.ok = ok
        self.has_fails = has_fails
        self.error = error


# --- running ops ------------------------------------------------------------------


def invoke(cli, argv):
    """Run `homalg ARGV` in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_op(cli, op):
    """Run every call of op and check the result; never raises."""
    try:
        results = [invoke(cli, argv) for argv in op.calls]
        if op.twist:
            return _check_twist(results)
        if op.expect is None:
            return Outcome(False, False, "no reference recorded")
        return _check_reference(results[0], op.expect)
    except Exception as exc:   # an op that raises is counted, not fatal
        return Outcome(False, False, "raised %s: %s" % (type(exc).__name__, exc))


def _has_fails(stdout):
    return any(c["verdict"] == "fails" for c in json.loads(stdout)["checks"])


def _check_reference(result, expect):
    code, stdout = result
    if code == 2:
        return Outcome(False, False, "exit 2")
    has_fails = _has_fails(stdout)
    if code != expect["exit"]:
        return Outcome(False, has_fails,
                       "exit %d, reference %d" % (code, expect["exit"]))
    if digest(stdout) != expect["stdout_sha256"]:
        return Outcome(False, has_fails, "--json output differs from reference")
    return Outcome(True, has_fails)


def _check_twist(results):
    (twist_code, _), (verify_code, stdout) = results
    if twist_code != 0:
        return Outcome(False, False, "twist exit %d" % twist_code)
    checks = json.loads(stdout)["checks"]
    has_fails = any(c["verdict"] == "fails" for c in checks)
    names = tuple(c["identity"] for c in checks)
    if names != TWIST_IDENTITIES:
        return Outcome(False, has_fails, "verify checked %s" % (names,))
    if verify_code != 0 or not all(c["verdict"] in HOLDING for c in checks):
        return Outcome(False, has_fails, "twist theorem violated: %s"
                       % [c["verdict"] for c in checks])
    return Outcome(True, has_fails)


# --- set-up -----------------------------------------------------------------------


def write_inputs(name, seed):
    """Write the inputs the benchmark itself generates for workload `name`
    into the current directory: the twist-sweep tables."""
    if name != "twist-sweep":
        return
    os.makedirs("tables")
    os.makedirs("twisted")
    for n, text in enumerate(twist_tables(seed)):
        with open("tables/t%03d.json" % n, "w", encoding="utf-8") as fh:
            fh.write(text)


def setup(name, cli, catalog, seed, reference):
    """Do the program's part of the set-up of workload `name` in the current
    directory and return its ops: emit the catalog tables it reads, through
    `homalg catalog show --emit`.  `reference` maps each op key to its
    recorded exit code and stdout digest (unused by twist-sweep)."""
    if name == "catalog-verify":
        ops = _catalog_verify_ops(cli, catalog)
    elif name == "alpha-power":
        ops = _alpha_power_ops(cli)
    elif name == "twist-sweep":
        return _twist_sweep_ops()
    else:
        raise ValueError("unknown workload %r" % name)
    for op in ops:
        op.expect = reference.get(op.key)
    random.Random(seed).shuffle(ops)
    return ops


def _emit(cli, key):
    os.makedirs("catalog", exist_ok=True)
    path = "catalog/%s.json" % key
    code, _ = invoke(cli, ["catalog", "show", key, "--emit", "-o", path])
    if code != 0:
        raise RuntimeError("catalog show %s --emit exited %d" % (key, code))
    return path


def _catalog_verify_ops(cli, catalog):
    ops = []
    for key in catalog.list_keys():
        path = _emit(cli, key)
        for identity in cli._DEFAULT_SUITE:
            ops.append(Op([["verify", path, "--identity", identity, "--json"]]))
    return ops


def _alpha_power_ops(cli):
    ops = []
    for key in ALPHA_TABLES:
        path = _emit(cli, key)
        for k in ALPHA_POWERS:
            ops.append(Op([["verify", path, "--expr", ALPHA_EXPR.format(k=k),
                            "--json"]]))
    return ops


def _twist_sweep_ops():
    ops = []
    for n in range(TWIST_TABLES):
        src, out = "tables/t%03d.json" % n, "twisted/t%03d.json" % n
        verify = ["verify", out]
        for identity in TWIST_IDENTITIES:
            verify += ["--identity", identity]
        ops.append(Op([["twist", src, "--map", "f", "-o", out],
                       verify + ["--json"]], twist=True))
    return ops


# --- the twist-sweep generator ----------------------------------------------------


def twist_tables(seed, count=TWIST_TABLES):
    """File texts of `count` random associative tables, each declaring an
    endomorphism `f`, determined by `seed` alone.

    Families (as in the property tests): truncated polynomial algebras
    Q[x]/(x^n) with x -> t*x, cyclic group algebras Q[Z_n] with the map
    induced by m -> c*m, and zero algebras with an arbitrary linear map, each
    under a random basis relabeling.  Families and dimensions 2-4 are dealt
    round-robin, not drawn, and the map parameters are drawn among values
    that keep its sparsity (t != 0, c a unit mod n, nonzero entries), so
    every seed asks for the same amount of work and only coefficients,
    automorphisms and labelings vary.
    """
    rng = random.Random(seed)
    shapes = [(kind, dim) for kind in TWIST_FAMILIES for dim in TWIST_DIMS]
    texts = [_table_text(rng, n, *shapes[n % len(shapes)]) for n in range(count)]
    rng.shuffle(texts)
    return texts


def _table_text(rng, n, kind, dim):
    if kind == "truncated":
        mu = [(i, j, i + j) for i in range(dim) for j in range(dim)
              if i + j < dim]
        t = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        f = [[t ** i if i == j else Fraction(0) for j in range(dim)]
             for i in range(dim)]
    elif kind == "group":
        mu = [(i, j, (i + j) % dim) for i in range(dim) for j in range(dim)]
        c = rng.choice([c for c in range(1, dim) if gcd(c, dim) == 1])
        f = [[Fraction(0)] * dim for _ in range(dim)]
        for j in range(dim):
            f[(c * j) % dim][j] = Fraction(1)
    else:
        mu = []
        f = [[Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(dim)]
             for _ in range(dim)]
    perm = list(range(dim))
    rng.shuffle(perm)
    basis = ["b%d" % i for i in range(dim)]
    products = sorted((perm[i], perm[j], perm[k]) for i, j, k in mu)
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            rows[perm[i]][perm[j]] = str(f[i][j])
    doc = {
        "name": "random_%s_%03d" % (kind, n),
        "dim": dim,
        "basis": basis,
        "params": [],
        "mu": [{"i": basis[i], "j": basis[j], "value": {basis[k]: "1"}}
               for i, j, k in products],
        "maps": {"f": rows},
    }
    return json.dumps(doc, indent=2) + "\n"
