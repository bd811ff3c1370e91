"""Exact rational-function arithmetic: canonical forms, field laws,
specialization.  Expected values are computed independently (plain Fraction
arithmetic or by hand) before being asserted."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from homalgebra.algebra import AlgebraSpec, LinMap, Vector
from homalgebra.errors import (
    DivisionByZero,
    SpecializedDenominatorZero,
    UnboundParameter,
    ZeroDenominator,
)
from homalgebra.scalars import (
    Monomial,
    Polynomial,
    Scalar,
    exact_div,
    name_key,
    nonzero_constraints,
    normalize,
    poly_gcd,
)
from homalgebra import scalars
from homalgebra.fileio import loads
from homalgebra.parser import parse_scalar_expr

from conftest import random_point, random_polynomial, random_nonzero_polynomial, random_scalar


def P(name):
    return Polynomial.var(name)


def S(name):
    return Scalar.var(name)


@pytest.fixture(params=["packed", "wide"], scope="class")
def key_form(request):
    """Runs a class twice: with packed keys, and with every layout made
    while it runs wide (a _PACK_BITS of 0), so the tuple keys of wide
    layouts meet the same checks.  A class of seeded rng data meets the
    same data in both; a hypothesis test draws fixed examples of its own
    in each, since hypothesis seeds a parametrized test per parameter."""
    saved = scalars._PACK_BITS
    if request.param == "wide":
        scalars._PACK_BITS = 0
    yield request.param
    scalars._PACK_BITS = saved


@pytest.mark.usefixtures("key_form")
class TestNormalize:
    def test_gcd_cancellation(self):
        # (a^2*b, a*b) reduces to (a, 1)
        s = normalize(P("a") * P("a") * P("b"), P("a") * P("b"))
        assert s == S("a")
        assert s.den.is_one()

    def test_already_canonical(self):
        s = normalize(P("a") - P("b"), Polynomial.const(1))
        assert s.num == P("a") - P("b")
        assert s.den.is_one()

    def test_coprime_fraction_stays(self):
        # a4*a3 over a2: coprime, kept as is
        s = normalize(P("a4") * P("a3"), P("a2"))
        assert s.num == P("a3") * P("a4")
        assert s.den == P("a2")
        assert str(s) == "(a3*a4)/(a2)"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            normalize(P("a"), Polynomial.zero())

    def test_common_factor_invariance(self, rng):
        for _ in range(40):
            n = random_polynomial(rng)
            d = random_nonzero_polynomial(rng)
            g = random_nonzero_polynomial(rng, max_terms=2, max_degree=2)
            assert normalize(n * g, d * g) == normalize(n, d)

    def test_idempotent(self, rng):
        for _ in range(40):
            s = random_scalar(rng)
            assert normalize(s.num, s.den) == s

    def test_monic_denominator(self, rng):
        for _ in range(40):
            s = random_scalar(rng)
            if not s.den.is_one():
                assert s.den.leading_coeff() == 1


@pytest.mark.usefixtures("key_form")
class TestArith:
    def test_additive_inverse(self):
        assert (S("a") + -S("a")).is_zero()

    def test_power_law_and_specialize(self):
        cube = (S("a") * S("a")) * S("a")
        assert cube == S("a") ** 3
        assert cube.specialize({"a": Fraction(2)}) == 8

    def test_sub_gives_defect_polynomial(self):
        d = S("a") * S("a") - S("a")
        assert str(d) == "a^2 - a"
        assert d.specialize({"a": Fraction(1)}) == 0
        assert d.specialize({"a": Fraction(3)}) == 6

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            S("a") / Scalar.zero()

    def test_field_laws_random(self, rng):
        for _ in range(25):
            x, y, z = (random_scalar(rng) for _ in range(3))
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x
            if not y.is_zero():
                assert (x / y) * y == x

    def test_history_independence(self, rng):
        # the same value reached along different operation orders is identical
        for _ in range(25):
            x, y = random_scalar(rng), random_scalar(rng)
            g = random_nonzero_polynomial(rng, max_terms=2, max_degree=1)
            x_messy = normalize(x.num * g, x.den * g)
            assert x_messy == x
            assert x_messy + y == x + y
            assert x_messy * y == x * y


@pytest.mark.usefixtures("key_form")
class TestSpecialize:
    def test_kills_factor(self):
        x = (S("a") - S("b")) * S("b")
        assert x.specialize({"a": 1, "b": 1}) == 0

    def test_defect_value(self):
        # direct Fraction oracle: (2 - 1) * 1 = 1
        x = (S("a") - S("b")) * S("b")
        oracle = (Fraction(2) - Fraction(1)) * Fraction(1)
        assert x.specialize({"a": 2, "b": 1}) == oracle == 1

    def test_denominator_vanishes(self):
        x = S("a4") * S("a3") / S("a2")
        with pytest.raises(SpecializedDenominatorZero):
            x.specialize({"a2": 0, "a3": 1, "a4": 1})

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameter):
            (S("a") + S("b")).specialize({"a": 1})

    def test_commutes_with_arith(self, rng):
        for _ in range(30):
            x, y = random_scalar(rng), random_scalar(rng)
            for _ in range(4):
                pt = random_point(rng)
                try:
                    xv, yv = x.specialize(pt), y.specialize(pt)
                except SpecializedDenominatorZero:
                    continue
                assert (x + y).specialize(pt) == xv + yv
                assert (x * y).specialize(pt) == xv * yv
                assert (x - y).specialize(pt) == xv - yv
                if yv != 0:
                    assert (x / y).specialize(pt) == xv / yv
                break


@pytest.mark.usefixtures("key_form")
class TestEquality:
    def test_cross_multiplication(self, rng):
        for _ in range(30):
            x = random_scalar(rng)
            y = random_scalar(rng) if rng.random() < 0.5 else normalize(
                x.num * Polynomial.const(3), x.den * Polynomial.const(3))
            cross = x.num * y.den - y.num * x.den
            assert (x == y) == cross.is_zero()
            # checked against specialization at points avoiding denominators
            agreed = 0
            while agreed < 3:
                pt = random_point(rng)
                try:
                    same = x.specialize(pt) == y.specialize(pt)
                except SpecializedDenominatorZero:
                    continue
                agreed += 1
                if x == y:
                    assert same
            if not cross.is_zero():
                # some point must distinguish them
                found = False
                for _ in range(50):
                    pt = random_point(rng)
                    try:
                        if x.specialize(pt) != y.specialize(pt):
                            found = True
                            break
                    except SpecializedDenominatorZero:
                        continue
                assert found


class TestConstantHash:
    """A constant Scalar equals its number, so it must hash as it too."""

    def test_set_and_dict_membership(self):
        assert 1 in {Scalar.one()}
        assert 0 in {Scalar.zero()}
        assert Fraction(1, 2) in {Scalar.from_fraction(Fraction(1, 2))}
        assert {Scalar.from_fraction(-3): "x"}[-3] == "x"
        key = Scalar.from_fraction(Fraction(-7, 4))
        assert {Fraction(-7, 4): "y"}[key] == "y"

    @pytest.mark.parametrize("value", [0, 1, -5, 2 ** 70, Fraction(1, 2),
                                       Fraction(-9, 7), Fraction(6, 3)])
    def test_hash_matches_the_number(self, value):
        for s in (Scalar.from_fraction(value),
                  normalize(Polynomial.const(value) * P("a"), P("a"))):
            assert s == value and value == s
            assert hash(s) == hash(value) == hash(Fraction(value))

    def test_equal_scalars_hash_equal(self, rng):
        for _ in range(30):
            x = random_scalar(rng)
            g = random_nonzero_polynomial(rng, max_terms=2, max_degree=1)
            y = normalize(x.num * g, x.den * g)
            assert x == y and hash(x) == hash(y)


# Everything that turns a number into a Scalar, or below the Scalar layer
# into a polynomial (a coefficient, a scale factor, a bound value): each
# takes ints and Fractions, and refuses the rest rather than storing a
# float's binary expansion or parsing a string.
_COERCIONS = {
    "Vector": lambda x: Vector([1, x]),
    "Vector.scale": lambda x: Vector([1, 2]).scale(x),
    "LinMap": lambda x: LinMap([[1, 0], [x, 1]]),
    "AlgebraSpec.mu": lambda x: AlgebraSpec("t", 1, ["e"], mu=[(0, 0, 0, x)]),
    "Scalar.from_fraction": Scalar.from_fraction,
    "Scalar + x": lambda x: Scalar.one() + x,
    "Polynomial": lambda x: Polynomial({Monomial({"a": 1}): x}),
    "Polynomial.const": Polynomial.const,
    "Scalar(Polynomial.const)": lambda x: Scalar(Polynomial.const(x)),
    "Polynomial.scale": lambda x: Polynomial.var("a").scale(x),
    "Polynomial.evaluate": lambda x: Polynomial.var("a").evaluate({"a": x}),
    "Polynomial.substitute": lambda x: Polynomial.var("a").substitute(
        {"a": x}),
    "Scalar.specialize": lambda x: Scalar.var("a").specialize({"a": x}),
    "Scalar.substitute": lambda x: Scalar.var("a").substitute({"a": x}),
}


class TestExactnessGate:
    @pytest.mark.parametrize("value", [0.1, "2/3"], ids=["float", "str"])
    @pytest.mark.parametrize("make", list(_COERCIONS.values()),
                             ids=list(_COERCIONS))
    def test_inexact_numbers_are_refused(self, make, value):
        with pytest.raises(TypeError, match="cannot coerce"):
            make(value)

    @pytest.mark.parametrize("value", [3, Fraction(2, 3)],
                             ids=["int", "Fraction"])
    @pytest.mark.parametrize("make", list(_COERCIONS.values()),
                             ids=list(_COERCIONS))
    def test_exact_numbers_are_taken(self, make, value):
        make(value)

    def test_foreign_types_compare_unequal(self):
        assert Scalar.one() != 1.0
        assert Scalar.from_fraction(Fraction(1, 10)) != 0.1
        assert Scalar.zero() != "0"
        assert Scalar.one().__eq__(1.0) is NotImplemented


@pytest.mark.usefixtures("key_form")
class TestGcdInternals:
    def test_gcd_divides_both(self, rng):
        for _ in range(25):
            p = random_polynomial(rng, max_terms=3, max_degree=2)
            q = random_polynomial(rng, max_terms=3, max_degree=2)
            g = poly_gcd(p, q)
            if p.is_zero() and q.is_zero():
                assert g.is_zero()
                continue
            for h in (p, q):
                if not h.is_zero():
                    assert exact_div(h, g) * g == h

    def test_gcd_detects_common_factor(self, rng):
        for _ in range(25):
            common = random_nonzero_polynomial(rng, max_terms=2, max_degree=2)
            if common.is_constant():
                continue
            p = common * random_nonzero_polynomial(rng, max_terms=2, max_degree=1)
            q = common * random_nonzero_polynomial(rng, max_terms=2, max_degree=1)
            g = poly_gcd(p, q)
            # common divides the gcd
            assert exact_div(g, common) * common == g
            assert exact_div(p, g) * g == p
            quotient_of_common = poly_gcd(g, common)
            assert exact_div(common, quotient_of_common).is_constant()


@pytest.mark.usefixtures("key_form")
class TestSplitter:
    # a layout's splitter cuts a key into its factor in each group of names
    # and the rest; the parts and the rest multiply back to the key
    GROUPS = (("x_1", "x_2", "x_10"), ("y_1", "y_2"), ("z_1",))
    NAMES = ("a", "b", "x_1", "x_2", "x_10", "y_1", "y_2")

    def test_parts_multiply_back(self, rng):
        for _ in range(30):
            p = random_polynomial(rng, max_terms=6, max_degree=3,
                                  variables=self.NAMES)
            layout = p.ring
            split = layout.splitter(self.GROUPS)
            for key in p.terms:
                parts, rest = split(key)
                assert len(parts) == len(self.GROUPS)
                total = {}
                for part, group in zip(parts, self.GROUPS):
                    exps = layout.fields(part)
                    assert {v for v, _ in exps} <= set(group)
                    assert layout.degree(part) == sum(e for _, e in exps)
                    for v, e in exps:
                        total[v] = total.get(v, 0) + e
                rest_exps = layout.fields(rest)
                assert not {v for v, _ in rest_exps} & {
                    v for g in self.GROUPS for v in g}
                assert layout.degree(rest) == sum(e for _, e in rest_exps)
                total.update(rest_exps)
                assert total == dict(layout.fields(key))
                assert sum(parts, rest) == key

    def test_constant_and_absent_names(self):
        # z_1 is in no layout here, and the constant key splits into zeros
        p = Polynomial({Monomial({"a": 2, "x_2": 1}): 3, Monomial(): 1})
        split = p.ring.splitter(self.GROUPS)
        assert split(0) == ((0, 0, 0), 0)
        key = max(p.terms)
        (x, y, z), rest = split(key)
        assert p.ring.fields(x) == (("x_2", 1),) and y == z == 0
        assert p.ring.fields(rest) == (("a", 2),)


def _random_den(rng):
    while True:
        d = random_nonzero_polynomial(rng, max_terms=2, max_degree=1)
        if not d.is_constant():
            return d


def _den_case(b, d):
    """Which case of Henrici's sum the denominators b and d take."""
    if b.is_one() and d.is_one():
        return "polynomial"
    if b.is_one() or d.is_one():
        return "one polynomial"
    if b == d:
        return "equal"
    return "coprime" if poly_gcd(b, d).is_one() else "shared"


def _summands(rng, case):
    """Canonical x and y whose denominators fall in case.  In "cancelling",
    x + y = w/h over x.den = y.den = g*h, so the gcd of the numerator with
    the common denominator is not 1."""
    one = Polynomial.const(1)
    while True:
        u, w = random_polynomial(rng), random_polynomial(rng)
        g, h = _random_den(rng), _random_den(rng)
        b, d = {"polynomial": (one, one),
                "one polynomial": rng.choice([(one, g), (g, one)]),
                "equal": (g, g), "coprime": (g, h),
                "shared": (g * h, g * _random_den(rng)),
                "cancelling": (g * h, g * h)}[case]
        x = Scalar(u, b)
        if case == "cancelling":
            y = Scalar(g * w - u, d)
            # nothing of g*h cancelled in x or y
            if x.den == y.den == Scalar(one, b).den:
                return x, y
        else:
            y = Scalar(w, d)
            if _den_case(x.den, y.den) == case:
                return x, y


@pytest.mark.usefixtures("key_form")
class TestHenriciSum:
    # the sum of canonical a/b and c/d must be the canonical form of the
    # multiplied-out (a*d + c*b)/(b*d), which takes one gcd of all of it
    @pytest.mark.parametrize("case", ["polynomial", "one polynomial", "equal",
                                      "coprime", "shared", "cancelling"])
    def test_matches_normalize_of_the_cross_product(self, rng, case):
        reduced = 0
        for _ in range(20):
            x, y = _summands(rng, case)
            for got, op in ((x + y, Polynomial.__add__),
                            (x - y, Polynomial.__sub__)):
                want = normalize(op(x.num * y.den, y.num * x.den),
                                 x.den * y.den)
                assert got.num == want.num and got.den == want.den
                assert str(got) == str(want)
                lcm = exact_div(x.den * y.den, poly_gcd(x.den, y.den))
                reduced += got.den != lcm
            assert (x - x).is_zero() and (y - y).is_zero()
        # only a common factor of the denominators can cancel, past their
        # lcm; a cancelling x + y always does
        if case in ("polynomial", "one polynomial", "coprime"):
            assert reduced == 0
        elif case == "cancelling":
            assert reduced >= 20


class TestConstraints:
    def test_monomial_denominator_splits(self):
        s = S("a4") / (S("a2") * S("a2") * S("a5"))
        assert s.nonzero_constraints() == ("a2 != 0", "a5 != 0")

    def test_multiterm_denominator_verbatim(self):
        s = S("a") / (S("a") - Scalar.one())
        assert s.nonzero_constraints() == ("(a - 1) != 0",)

    def test_polynomial_scalar_has_none(self):
        assert (S("a") ** 2 - S("a")).nonzero_constraints() == ()


class TestPrinting:
    def test_canonical_strings(self):
        assert str(S("a") ** 2 - S("a")) == "a^2 - a"
        assert str(Scalar.from_fraction(Fraction(1, 2)) * S("b")) == "1/2*b"
        assert str(Scalar.zero()) == "0"
        assert str(-S("a")) == "-a"

    def test_graded_lex_ordering_in_output(self):
        p = P("a") + P("b") * P("b")
        assert str(p) == "b^2 + a"
        # name order is digit aware: a2 before a10
        q = Polynomial.var("a10") + Polynomial.var("a2")
        assert str(q) == "a2 + a10"


# --- independent oracles -------------------------------------------------------------
#
# A polynomial is drawn as a raw spec, a list of (coefficient, {variable:
# exponent}); the oracle evaluates the spec with plain Fraction arithmetic,
# and a result is read off its terms the same way, never through
# Polynomial.evaluate.  The names exercise the digit-aware order (a2 < a10).

NAMES = ("a2", "a10", "b", "x_1")
# fixed examples, so that every run of the suite checks the same cases in
# the same time
oracle = settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)

coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5))
monomial_exps = st.dictionaries(st.sampled_from(NAMES), st.integers(1, 2),
                                max_size=3)
poly_specs = st.lists(st.tuples(coefficients, monomial_exps), max_size=3)
points = st.fixed_dictionaries({
    v: st.fractions(min_value=-5, max_value=5, max_denominator=4)
    for v in NAMES})


def _poly(spec):
    terms = {}
    for c, exps in spec:
        m = Monomial(exps)
        terms[m] = terms.get(m, 0) + Fraction(c)
    return Polynomial(terms)


def _spec_value(spec, pt):
    return sum((Fraction(c) * prod(pt[v] ** e for v, e in exps.items())
                for c, exps in spec), Fraction(0))


def _poly_value(p, pt):
    return sum((Fraction(c) * prod(pt[v] ** e for v, e in m.exps)
                for m, c in p.monomials().items()), Fraction(0))


def _value(s, pt):
    return _poly_value(s.num, pt) / _poly_value(s.den, pt)


def _assert_canonical(s):
    for p in (s.num, s.den):
        for c in p.terms.values():
            # an int when integral, a Fraction only when not
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    assert not s.den.is_zero() and s.den.leading_coeff() == 1
    if s.num.is_zero():
        assert s.den.is_one()
    else:
        assert poly_gcd(s.num, s.den).is_one()


@st.composite
def scalar_specs(draw):
    num = draw(poly_specs)
    den = draw(poly_specs.filter(lambda spec: not _poly(spec).is_zero()))
    return num, den


def _scalar_at(spec, pt):
    """The Scalar of a (num, den) spec and its oracle value at pt; the
    value is None where the denominator vanishes."""
    num, den = spec
    dv = _spec_value(den, pt)
    value = _spec_value(num, pt) / dv if dv else None
    return Scalar(_poly(num), _poly(den)), value


@pytest.mark.usefixtures("key_form")
class TestFractionOracle:
    @oracle
    @given(x=scalar_specs(), y=scalar_specs(), pt=points)
    def test_field_operations(self, x, y, pt):
        xs, xv = _scalar_at(x, pt)
        ys, yv = _scalar_at(y, pt)
        assume(xv is not None and yv is not None)
        results = [(xs + ys, xv + yv), (xs - ys, xv - yv), (xs * ys, xv * yv),
                   (-xs, -xv)]
        if yv:
            results.append((xs / ys, xv / yv))
        for got, want in results:
            _assert_canonical(got)
            assert _value(got, pt) == want

    @oracle
    @given(x=scalar_specs(), n=coefficients, pt=points)
    def test_numbers_on_the_left(self, x, n, pt):
        xs, xv = _scalar_at(x, pt)
        assume(xv is not None)
        # an int draw is also checked as a Fraction, so both types go left
        for m in (n, Fraction(n)):
            results = [(m + xs, m + xv), (m - xs, m - xv), (m * xs, m * xv)]
            if xv:
                results.append((m / xs, m / xv))
            for got, want in results:
                assert isinstance(got, Scalar)
                _assert_canonical(got)
                assert _value(got, pt) == want
            # a Scalar free of variables is its value; any other is no number
            assert (xs == m) == (m == xs) == (not xs.variables() and xv == m)
            const = Scalar(_poly([(m, {})]), _poly([(1, {})]))
            assert const == m and m == const and hash(const) == hash(m)

    @oracle
    @given(x=scalar_specs(), n=st.integers(-4, 4), pt=points)
    def test_power(self, x, n, pt):
        xs, xv = _scalar_at(x, pt)
        assume(xv is not None and (n >= 0 or xv))
        got = xs ** n
        _assert_canonical(got)
        assert _value(got, pt) == xv ** n

    @oracle
    @given(x=scalar_specs(), g=poly_specs, pt=points)
    def test_normalize(self, x, g, pt):
        num, den = x
        gp = _poly(g)
        assume(not gp.is_zero())
        dv = _spec_value(den, pt) * _spec_value(g, pt)
        assume(dv != 0)
        got = normalize(_poly(num) * gp, _poly(den) * gp)
        _assert_canonical(got)
        assert _value(got, pt) == _spec_value(num, pt) * _spec_value(g, pt) / dv
        assert got == Scalar(_poly(num), _poly(den))

    @oracle
    @given(x=scalar_specs(), pt=points,
           bound=st.sets(st.sampled_from(NAMES), max_size=len(NAMES)))
    def test_substitute(self, x, pt, bound):
        xs, xv = _scalar_at(x, pt)
        assume(xv is not None)
        got = xs.substitute({v: pt[v] for v in bound})
        _assert_canonical(got)
        assert not got.variables() & bound
        assert _value(got, pt) == xv

    @oracle
    @given(x=scalar_specs())
    def test_string_round_trip(self, x):
        s = Scalar(_poly(x[0]), _poly(x[1]))
        assert parse_scalar_expr(str(s), NAMES) == s


# A 4-variable scalar whose cube, multiplied out and reduced by one gcd of
# num^3 and den^3, costs the primitive PRS half a minute; a power takes no gcd,
# and a product or quotient takes only the cross gcds of its factors.  The
# checks run in a subprocess under a timeout, so that a regression fails
# instead of hanging the suite.
_CUBE_BASE = ("(-7/15*a2*a10*x_1 - 4/3*b - 1/3)"
              "/(a2^2*b^2*x_1^2 + 2/15*a2*a10*x_1^2 + 4/3)")
# a 1-dim algebra file whose one structure constant is the cube of the base
_CUBE_FILE = """
import json, sys
from fractions import Fraction
from homalgebra.fileio import loads
from homalgebra.parser import parse_scalar_expr

base, names, points = json.load(sys.stdin)
s = parse_scalar_expr(base, names)
doc = {"name": "cube", "dim": 1, "basis": ["e"],
       "params": [{"name": v} for v in names],
       "mu": [{"i": "e", "j": "e", "value": {"e": "(%s)^3" % base}}]}
"""
_POWER_SCRIPT = _CUBE_FILE + """
(_, _, _, constant), = loads(json.dumps(doc)).algebra.mu
values = []
for pt in points:
    pt = {v: Fraction(x) for v, x in pt.items()}
    values.append([str(r.specialize(pt)) for r in (s ** 3, s ** -3, constant)])
print(json.dumps(values))
"""
# the default suite of `homalg verify` on that file: at a product's cross
# gcd, poly_gcd(a, d), the primitive PRS was still running after 90 s
_VERIFY_SCRIPT = _CUBE_FILE + """
import contextlib, io, os, tempfile
from homalgebra.cli import main

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cube.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", path, "--json"])
checks = json.loads(out.getvalue())["checks"]
print(json.dumps([code, str((s ** 3).den),
                  [[c["verdict"], c["assumptions"]] for c in checks]]))
"""
_PRODUCT_SCRIPT = """
import json, sys
from homalgebra.parser import parse_scalar_expr

base, names = json.load(sys.stdin)
s = parse_scalar_expr(base, names)
print(json.dumps([s * s * s == s ** 3, (s * s) / s == s]))
"""


def _run_with_timeout(script, payload):
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(payload),
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


_SUM_SCRIPT = """
import json, sys
from fractions import Fraction
from homalgebra.parser import parse_scalar_expr

base, names, (m, n), points = json.load(sys.stdin)
s = parse_scalar_expr(base, names)
sums = [s ** m + s ** n, s ** m - s ** n]
print(json.dumps([[str(r.specialize({v: Fraction(x) for v, x in pt.items()}))
                   for r in sums] for pt in points]))
"""


def _cube_base_value(pt):
    a2, a10, b, x = (pt[v] for v in NAMES)
    den = (a2 ** 2 * b ** 2 * x ** 2 + Fraction(2, 15) * a2 * a10 * x ** 2
           + Fraction(4, 3))
    if not den:
        return None
    return (Fraction(-7, 15) * a2 * a10 * x - Fraction(4, 3) * b
            - Fraction(1, 3)) / den


def _cube_base_points(rng):
    pts = []
    while len(pts) < 5:
        pt = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for v in NAMES}
        if _cube_base_value(pt):
            pts.append(pt)
    return pts


def _check_sums(rng, m, n):
    """s^m + s^n and s^m - s^n of the base, at seeded points."""
    pts = _cube_base_points(rng)
    got = _run_with_timeout(_SUM_SCRIPT, [
        _CUBE_BASE, NAMES, [m, n],
        [{v: str(x) for v, x in pt.items()} for pt in pts]])
    for pt, values in zip(pts, got):
        v = _cube_base_value(pt)
        assert [Fraction(g) for g in values] == [v ** m + v ** n,
                                                 v ** m - v ** n]


class TestPowerCost:
    def test_cube_of_a_four_variable_scalar(self, rng):
        pts = _cube_base_points(rng)
        got = _run_with_timeout(_POWER_SCRIPT, [
            _CUBE_BASE, NAMES,
            [{v: str(x) for v, x in pt.items()} for pt in pts]])
        for pt, values in zip(pts, got):
            v = _cube_base_value(pt)
            assert [Fraction(g) for g in values] == [v ** 3, v ** -3, v ** 3]

    def test_a_square_plus_or_minus_the_scalar(self, rng):
        # a sum takes the gcd of its denominators (Henrici), here den^2 and
        # den, not one gcd of the multiplied-out sum, which took over 20 s
        _check_sums(rng, 2, 1)

    def test_a_cube_plus_or_minus_a_square(self, rng):
        # s^3 + s*s: the sum's second gcd, of the 22-term numerator with
        # den^2, did not finish in 120 s with the primitive PRS
        _check_sums(rng, 3, 2)

    def test_verify_of_a_file_whose_constant_is_the_cube(self):
        # a 1-dim commutative, associative algebra with the identity map
        # satisfies every identity, under the constant's denominator
        code, den, checks = _run_with_timeout(
            _VERIFY_SCRIPT, [_CUBE_BASE, NAMES, []])
        assert code == 0 and len(checks) == 13
        assert all(c == ["holds-under-assumptions", ["(%s) != 0" % den]]
                   for c in checks)

    def test_products_and_quotients_of_the_same_scalar(self):
        assert _run_with_timeout(_PRODUCT_SCRIPT, [_CUBE_BASE, NAMES]) == [
            True, True]


# Dividing the square of a sum of 600 names (180 300 terms) by the sum: a
# division that copied and rescanned its remainder per quotient term took
# about 50 s; one remainder changed in place, with a heap of its keys,
# takes about 1.5 s (Python 3.11, 2 CPUs).
_DIVISION_SCRIPT = """
import json, sys
from homalgebra.scalars import Polynomial, exact_div

n, = json.load(sys.stdin)
total = Polynomial.zero()
for p in Polynomial.gens(["p%d" % i for i in range(1, n + 1)]):
    total = total + p
square = total * total
print(json.dumps([len(square.terms), exact_div(square, total) == total]))
"""


class TestDivisionCost:
    def test_the_square_of_a_wide_sum_by_the_sum(self):
        assert _run_with_timeout(_DIVISION_SCRIPT, [600]) == [180300, True]


# A the sum of the squares of n names: GCDHEU's xi doubles in size at each
# level, so gcd(A, A + 1) over 30 names needed gigabytes before xi was
# bounded (_XI_BITS); past the bound the primitive PRS takes one
# pseudo-remainder.  (A + 1)(A + p1) and (A + 1)(A - p2) reach the bound too,
# and their gcd is A + 1.
_SQUARES_SCRIPT = """
import json, sys
from homalgebra.scalars import Polynomial, poly_gcd

n, = json.load(sys.stdin)
gens = Polynomial.gens(["p%d" % i for i in range(1, n + 1)])
one = Polynomial.const(1)
squares = Polynomial.zero()
for p in gens:
    squares = squares + p * p
print(json.dumps([str(poly_gcd(squares, squares + one)),
                  poly_gcd((squares + one) * (squares + gens[0]),
                           (squares + one) * (squares - gens[1]))
                  == squares + one]))
"""


class TestGcdBound:
    def test_a_sum_of_squares_and_one_more(self):
        assert _run_with_timeout(_SQUARES_SCRIPT, [30]) == ["1", True]


def _to_sympy(sympy, p):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * prod(sympy.Symbol(v) ** e for v, e in m.exps)
                for m, c in p.monomials().items()), sympy.Integer(0))


def _assert_gcd_matches_sympy(sympy, p, q, names=NAMES):
    gens = [sympy.Symbol(v) for v in names]
    ours = sympy.Poly(_to_sympy(sympy, poly_gcd(p, q)), *gens)
    theirs = sympy.Poly(sympy.gcd(_to_sympy(sympy, p), _to_sympy(sympy, q)),
                        *gens)
    assert ours.monic() == theirs.monic()


@pytest.mark.usefixtures("key_form")
class TestSympyCrossCheck:
    def test_poly_gcd_matches_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        for _ in range(40):
            common = random_polynomial(rng, max_terms=2, variables=NAMES)
            p = common * random_nonzero_polynomial(rng, variables=NAMES)
            q = common * random_nonzero_polynomial(rng, variables=NAMES)
            if p.is_zero() and q.is_zero():
                continue
            _assert_gcd_matches_sympy(sympy, p, q)

    def test_poly_gcd_of_an_exact_multiple(self, rng):
        sympy = pytest.importorskip("sympy")
        for _ in range(40):
            p = random_nonzero_polynomial(rng, variables=NAMES)
            q = random_nonzero_polynomial(rng, variables=NAMES)
            _assert_gcd_matches_sympy(sympy, p, p * q)
            _assert_gcd_matches_sympy(sympy, p * q, p)

    def test_poly_gcd_past_the_xi_bound(self, rng, monkeypatch):
        # with an _XI_BITS of 0 the primitive PRS takes every multi-term gcd
        sympy = pytest.importorskip("sympy")
        monkeypatch.setattr(scalars, "_XI_BITS", 0)
        real, prs = scalars._prs_gcd, []
        monkeypatch.setattr(scalars, "_prs_gcd",
                            lambda p, q: prs.append(p) or real(p, q))
        for _ in range(40):
            common = random_polynomial(rng, max_terms=2, variables=NAMES)
            p = random_nonzero_polynomial(rng, variables=NAMES)
            q = random_nonzero_polynomial(rng, variables=NAMES)
            _assert_gcd_matches_sympy(sympy, common * p, common * q)
            _assert_gcd_matches_sympy(sympy, p, p * q)
        assert prs

    # four variables; three up to degree 15; coefficients up to 10^6.  The
    # primitive PRS did not finish the four-variable draws in 90 s
    @pytest.mark.parametrize("names, max_degree, max_coeff, draws", [
        (NAMES, 7, 50, 300), (("a", "b", "c"), 5, 4, 60),
        (("a", "b", "c"), 2, 10 ** 6, 60)], ids=["four", "degree", "coeff"])
    def test_poly_gcd_of_larger_draws(self, rng, names, max_degree, max_coeff,
                                      draws):
        sympy = pytest.importorskip("sympy")
        kw = dict(variables=names, max_degree=max_degree, max_coeff=max_coeff)
        for _ in range(draws):
            p = random_nonzero_polynomial(rng, **kw)
            if rng.random() < 0.3:
                q = p * random_nonzero_polynomial(rng, **kw)
            else:
                common = random_nonzero_polynomial(rng, max_terms=2, **kw)
                p, q = common * p, common * random_nonzero_polynomial(rng, **kw)
            _assert_gcd_matches_sympy(sympy, p, q, names)

    def test_a_candidate_that_divides_neither_grows_xi(self, monkeypatch):
        # over Z the operands are 9*(a - 2) and a^2*(a - 2), and their
        # images at the first xi, 33, are 279 = 9*31 and 33759 = 1089*31:
        # their gcd 279 reads back as 8*a + 15, which divides neither, so xi
        # grows (the growth is the one caller of isqrt)
        sympy = pytest.importorskip("sympy")
        grown = []
        monkeypatch.setattr(scalars, "isqrt",
                            lambda n: grown.append(n) or isqrt(n))
        a, two = P("a"), Polynomial.const(2)
        p = (a - two).scale(Fraction(9, 2))
        q = (a * a * a - two * a * a).scale(Fraction(1, 2))
        assert poly_gcd(p, q) == a - two
        assert grown
        _assert_gcd_matches_sympy(sympy, p, q)

    def test_canonical_form_matches_cancel(self, rng):
        sympy = pytest.importorskip("sympy")
        for _ in range(40):
            num = random_polynomial(rng, variables=NAMES)
            den = random_nonzero_polynomial(rng, variables=NAMES)
            g = random_nonzero_polynomial(rng, max_terms=2, variables=NAMES)
            s = normalize(num * g, den * g)
            their_num, their_den = sympy.fraction(sympy.cancel(
                _to_sympy(sympy, num * g) / _to_sympy(sympy, den * g)))
            # both forms are coprime, so they agree up to one constant
            if s.is_zero():
                assert their_num == 0
                continue
            assert sympy.cancel(_to_sympy(sympy, s.num) / their_num).is_number
            assert sympy.cancel(_to_sympy(sympy, s.den) / their_den).is_number


# --- monomial order ------------------------------------------------------------------


def _reference_lt(m1, m2):
    """Graded lex as Monomial.__lt__ computed it before monomials stored their
    degree: degrees first, then a dict walk over the merged variables in
    name order."""
    d1 = sum(e for _, e in m1.exps)
    d2 = sum(e for _, e in m2.exps)
    if d1 != d2:
        return d1 < d2
    mine, theirs = dict(m1.exps), dict(m2.exps)
    for v in sorted(set(mine) | set(theirs), key=name_key):
        a, b = mine.get(v, 0), theirs.get(v, 0)
        if a != b:
            return a < b
    return False


def _reference_cmp(m1, m2):
    return -1 if _reference_lt(m1, m2) else (1 if _reference_lt(m2, m1) else 0)


def _reference_str(p):
    parts = []
    terms = p.monomials()
    for m in sorted(terms, key=cmp_to_key(_reference_cmp), reverse=True):
        c = Fraction(terms[m])
        body = (str(abs(c)) if not m.exps
                else str(m) if abs(c) == 1 else "%s*%s" % (abs(c), m))
        sign = ("" if c > 0 else "-") if not parts else (" + " if c > 0 else " - ")
        parts.append(sign + body)
    return "".join(parts) or "0"


ORDER_NAMES = NAMES + ("a", "x_10", "x_2")
monomials = st.dictionaries(st.sampled_from(ORDER_NAMES), st.integers(1, 3),
                            max_size=4).map(Monomial)


class TestMonomialOrder:
    @settings(oracle, max_examples=300)
    @given(m1=monomials, m2=monomials)
    def test_matches_reference(self, m1, m2):
        assert (m1 < m2) == _reference_lt(m1, m2)
        assert (m1 > m2) == _reference_lt(m2, m1)
        assert (m1 <= m2) == (not _reference_lt(m2, m1))
        product = Polynomial({m1: 1}) * Polynomial({m2: 1})
        assert product.leading_monomial().exps == Monomial(
            {v: dict(m1.exps).get(v, 0) + dict(m2.exps).get(v, 0)
             for v in dict(m1.exps) | dict(m2.exps)}).exps

    @settings(oracle, max_examples=100)
    @given(ms=st.lists(monomials, max_size=8, unique=True),
           cs=st.lists(coefficients.filter(bool), min_size=8, max_size=8))
    def test_sorted_terms_and_str_unchanged(self, ms, cs):
        p = Polynomial(dict(zip(ms, cs)))
        terms = p.monomials()
        assert sorted(terms) == sorted(terms, key=cmp_to_key(_reference_cmp))
        # the packed keys give the leading term and the printed order
        assert list(terms) == sorted(terms, key=cmp_to_key(_reference_cmp),
                                     reverse=True)
        if terms:
            assert p.leading_monomial() == next(iter(terms))
        assert str(p) == _reference_str(p)


# --- layouts -------------------------------------------------------------------


DIGIT_NAMES = ("a2", "a10", "b", "x_1", "x_2", "x_10", "gx_9", "gx_10")
digit_monomials = st.dictionaries(st.sampled_from(DIGIT_NAMES),
                                  st.integers(1, 3), max_size=4).map(Monomial)


def _both_forms(terms):
    """The polynomial of terms with packed keys, and with wide keys."""
    saved = scalars._PACK_BITS
    scalars._PACK_BITS = 0
    try:
        wide = Polynomial(terms)
    finally:
        scalars._PACK_BITS = saved
    assert isinstance(wide.ring, scalars._Wide)
    return Polynomial(terms), wide


class TestLayouts:
    @settings(oracle, max_examples=150)
    @given(ms=st.lists(digit_monomials, min_size=1, max_size=8, unique=True),
           cs=st.lists(coefficients.filter(bool), min_size=8, max_size=8))
    def test_order_matches_reference(self, ms, cs):
        want = sorted(ms, key=cmp_to_key(_reference_cmp), reverse=True)
        for p in _both_forms(dict(zip(ms, cs))):
            terms = p.monomials()
            assert list(terms) == want
            assert p.leading_monomial() == want[0]
            assert p.leading_coeff() == terms[want[0]]
            assert str(p) == _reference_str(p)

    @settings(oracle, max_examples=150)
    @given(m1=digit_monomials, m2=digit_monomials)
    def test_divisibility_matches_exponents(self, m1, m2):
        mine, theirs = dict(m1.exps), dict(m2.exps)
        for num, den in zip(_both_forms({m1: 3}), _both_forms({m2: 2})):
            if all(e <= mine.get(v, 0) for v, e in theirs.items()):
                quotient = exact_div(num, den)
                assert quotient.leading_monomial() == Monomial(
                    {v: e - theirs.get(v, 0) for v, e in mine.items()})
                assert quotient * den == num
            else:
                with pytest.raises(ValueError, match="not exact"):
                    exact_div(num, den)

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_gcd_is_the_fieldwise_min(self, rng, width):
        names = ("g1", "g2", "g3", "g4", "g5")
        for n in range(1, len(names) + 1):
            layout = scalars._Layout(names[:n], width)
            cap = layout.cap

            def exponents():
                # a degree below cap, often cap - 1, split at random cuts
                total = rng.choice([cap - 1, rng.randrange(cap)])
                cuts = sorted(rng.randrange(total + 1) for _ in range(n - 1))
                return [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]

            for _ in range(40):
                ea, eb = exponents(), exponents()
                if rng.random() < 0.2:
                    eb = ea
                want = [min(x, y) for x, y in zip(ea, eb)]
                keys = [layout.pack(zip(layout.names, e), sum(e))
                        for e in (ea, eb, want)]
                got = layout.gcd(keys[0], keys[1])
                assert got == keys[2] == layout.gcd(keys[1], keys[0])
                assert layout.degree(got) == sum(want)

    @pytest.mark.parametrize("extra", [["lay_1"], ["lay_5"], ["lay_20"],
                                       ["lay_%d" % i for i in range(300)]],
                             ids=["before", "between", "after", "wide"])
    def test_layouts_combine(self, extra):
        # the same polynomials built one name at a time, and in one layout
        # that also holds names before, between or after theirs (or so many
        # that it is wide), give equal results whichever layouts meet
        def build(a, b):
            c = Polynomial({Monomial({"lay_2": 2, "lay_10": 1}): Fraction(3, 2),
                            Monomial(): -1})
            return [a + b, a * a - c, b * c + Polynomial.const(3)]

        single = build(Polynomial.var("lay_2"), Polynomial.var("lay_10"))
        a, b, *_ = Polynomial.gens(["lay_2", "lay_10"] + extra)
        shared = build(a, b)
        assert all(p.ring is not q.ring for p, q in zip(single, shared))
        assert isinstance(shared[0].ring, scalars._Wide) == (len(extra) > 1)
        for e, l in zip(single, shared):
            assert e == l and l == e and hash(e) == hash(l)
            assert str(e) == str(l) and e.monomials() == l.monomials()
            assert e.variables() == l.variables() <= {"lay_2", "lay_10"}
        for (e1, l1), (e2, l2) in zip(zip(single, shared), zip(shared, single)):
            # each pair mixes the two kinds of operand, both ways round
            assert str(e1 + e2) == str(l1 + l2) and e1 + e2 == l1 + l2
            assert str(e1 - e2) == str(l1 - l2) and e1 - e2 == l1 - l2
            assert str(e1 * e2) == str(l1 * l2)
            assert hash(e1 * e2) == hash(l1 * l2)
            assert exact_div(e1 * e2, l2) == l1 == exact_div(l1 * l2, e2)
            assert poly_gcd(e1 * e2, l1) == poly_gcd(l1 * l2, e1)
            quotient = Scalar(e1) / Scalar(e2)
            assert quotient == Scalar(l1, l2) and hash(quotient) == hash(
                Scalar(l1, l2))
            assert str(quotient) == str(Scalar(l1) / Scalar(l2))

    def test_a_wide_file_leaves_later_layouts_small(self):
        # layouts belong to polynomials: neither 2000 declared parameters
        # nor a scalar over 2000 of them widens a later, small computation
        names = ["p%d" % i for i in range(1, 2001)]
        doc = {"name": "w", "dim": 1, "basis": ["e"],
               "params": [{"name": v} for v in names],
               "mu": [{"i": "e", "j": "e", "value": {"e": "p7*p3 + 1"}}]}
        ((_, _, _, c),) = loads(json.dumps(doc)).algebra.mu
        assert c.num.ring.names == ("p3", "p7")
        total = Polynomial.zero()
        for p in Polynomial.gens(names):
            total = total + p
        assert isinstance(total.ring, scalars._Wide)
        s = (Scalar.var("a") + 1) ** 2 * Scalar.var("b")
        assert s.num.ring.names == ("a", "b")
        assert max(s.num.terms).bit_length() <= 3 * 8

    def test_wide_keys_hold_only_the_variables_they_use(self):
        # the square of a sum of 200 names: each key names at most two
        # variables, and the result is the one packed keys give (quotients
        # and gcds on wide keys meet the oracles of the key_form classes)
        names = ["p%d" % i for i in range(1, 201)]
        total = Polynomial.zero()
        for p in Polynomial.gens(names):
            total = total + p
        square = total * total
        assert isinstance(square.ring, scalars._Wide)
        assert len(square.terms) == 200 * 201 // 2
        assert max(len(k) for k in square.terms) == 5
        saved = scalars._PACK_BITS
        scalars._PACK_BITS = 1 << 20
        try:
            packed = Polynomial(total.monomials())
            assert isinstance(packed.ring, scalars._Layout)
            packed_square = packed * packed
        finally:
            scalars._PACK_BITS = saved
        assert square == packed_square and str(square) == str(packed_square)


# A product whose degree would overflow a field goes to fields twice as
# wide, so exponents meet no new limit: a^(32^7) is built by nested powers,
# and it still combines with polynomials in 8-bit fields.
_NESTED_POWER = "((((((a^32)^32)^32)^32)^32)^32)^32*b + 1"
_WIDENING_SCRIPT = """
import json, sys
from homalgebra.parser import parse_scalar_expr
from homalgebra.scalars import Monomial, Polynomial, exact_div

text, = json.load(sys.stdin)
a, b = Polynomial.var("a"), Polynomial.var("b")
narrow = [a * b + Polynomial.const(2), a * a - b,
          Polynomial({Monomial({"a": 100, "b": 20}): 3})]
s = parse_scalar_expr(text, ["a", "b"])
big = Polynomial({Monomial({"a": 100}): 1}) * Polynomial(
    {Monomial({"a": 100, "b": 1}): 1})
print(json.dumps({
    "strings": [str(s), str(s * s), str(s ** -2)],
    "widths": [narrow[0].ring.width, s.num.ring.width, big.ring.width],
    "mixed": all(exact_div(p * s.num, s.num) == p == exact_div(s.num * p, s.num)
                 and str(p * s.num) == str(s.num * p) for p in narrow),
    "big": [[v, e] for v, e in big.leading_monomial().exps],
}))
"""


class TestNoNewLimit:
    def test_nested_powers_widen_the_layout(self):
        got = _run_with_timeout(_WIDENING_SCRIPT, [_NESTED_POWER])
        assert got == {
            "strings": [
                "a^34359738368*b + 1",
                "a^68719476736*b^2 + 2*a^34359738368*b + 1",
                "(1)/(a^68719476736*b^2 + 2*a^34359738368*b + 1)"],
            "widths": [8, 64, 16],
            "mixed": True,
            "big": [["a", 200], ["b", 1]]}
