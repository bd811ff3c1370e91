"""Exact arithmetic in Q(p1, ..., pm), the field of rational functions.

Every structure constant, matrix entry and residual in this package is a
Scalar: a quotient num/den of multivariate polynomials with rational
coefficients, kept in a canonical form so that equality is plain structural
equality.  Canonical form: gcd(num, den) = 1 and den monic under the graded
lexicographic monomial order (variables compared by a digit-aware name key,
so a2 < a10).  Everything here is immutable and pure.

Exactness has one gate: an operand, vector or matrix entry or structure
constant that is not a Scalar goes through _coerce, where an int or a
Fraction becomes a constant and anything else (a float, a Decimal, a str)
raises TypeError.  A constant Scalar equals and hashes as its Fraction value.

A polynomial holds each coefficient as a Python int when it is integral and
as a Fraction otherwise, so the integer tables that make up most inputs are
computed on ints; constant_value() and evaluate() still return Fractions.  A
monomial keeps its variables as a name-sorted tuple with its degree and hash
computed once.  The zero and one polynomials and Scalars are shared constants.

A power takes no gcd: num^n and den^n stay coprime when num and den are, so
s ** n is canonical by construction once its denominator is made monic.  A
product or quotient takes the two cross gcds of its factors (Henrici), not
one gcd of the multiplied-out result; a sum still reduces by one gcd.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import (
    DivisionByZero,
    SpecializedDenominatorZero,
    UnboundParameter,
    ZeroDenominator,
)

_NAME_CHUNKS = re.compile(r"(\d+)")


@lru_cache(maxsize=4096)
def name_key(name):
    """Digit-aware sort key for variable names: 'a2' sorts before 'a10'."""
    parts = _NAME_CHUNKS.split(name)
    key = []
    for i, part in enumerate(parts):
        if i % 2:
            key.append((1, int(part)))
        elif part:
            key.append((0, part))
    return tuple(key), name


@total_ordering
class Monomial:
    """A product of variable powers; exponents are strictly positive.

    exps is the name-sorted tuple of (variable, exponent); the degree and
    the hash are computed once, at construction.  Ordered by graded lex:
    total degree first, then variable-by-variable in name order (higher
    power of an earlier variable wins).
    """

    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps=()):
        items = [(v, e) for v, e in dict(exps).items() if e != 0]
        if any(e < 0 for _, e in items):
            raise ValueError("negative exponent in monomial")
        items.sort(key=lambda ve: name_key(ve[0]))
        exps = tuple(items)
        self.exps = exps
        self.degree = sum(e for _, e in exps)
        self._hash = hash(exps)

    @classmethod
    def _canonical(cls, exps, degree):
        """A monomial from a name-sorted tuple of positive exponents and
        its degree, taken as they are."""
        m = cls.__new__(cls)
        m.exps = exps
        m.degree = degree
        m._hash = hash(exps)
        return m

    @classmethod
    def var(cls, name, power=1):
        return cls._canonical(((name, power),), power)

    def is_unit(self):
        return not self.exps

    def variables(self):
        return frozenset(v for v, _ in self.exps)

    def __mul__(self, other):
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        # merge two name-sorted tuples
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            va, ea = a[i]
            vb, eb = b[j]
            if va == vb:
                out.append((va, ea + eb))
                i += 1
                j += 1
            elif name_key(va) < name_key(vb):
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        return Monomial._canonical(tuple(out) + a[i:] + b[j:],
                                   self.degree + other.degree)

    def divides(self, other):
        if self.degree > other.degree:
            return False
        d = dict(other.exps)
        for v, e in self.exps:
            if d.get(v, 0) < e:
                return False
        return True

    def __floordiv__(self, other):
        if not other.exps:
            return self
        merged = dict(self.exps)
        for v, e in other.exps:
            if merged.get(v, 0) < e:
                raise ValueError("monomial division is not exact")
            merged[v] -= e
        # a subset of self's variables, still in name order
        return Monomial._canonical(tuple((v, e) for v, e in merged.items() if e),
                                   self.degree - other.degree)

    def gcd(self, other):
        d = dict(other.exps)
        exps = tuple((v, min(e, d[v])) for v, e in self.exps if v in d)
        return Monomial._canonical(exps, sum(e for _, e in exps))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if self.degree != other.degree:
            return self.degree < other.degree
        # lex on the merged variable list, earlier variable's higher power
        # wins; equal degrees mean a common prefix leaves nothing over
        for (va, ea), (vb, eb) in zip(self.exps, other.exps):
            if va != vb:
                # the earlier variable is absent (power 0) from the other side
                return name_key(vb) < name_key(va)
            if ea != eb:
                return ea < eb
        return False

    def __gt__(self, other):
        return other.__lt__(self)

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in self.exps)

    def __repr__(self):
        return "Monomial(%r)" % (self.exps,)


_ONE_MONO = Monomial._canonical((), 0)


def _q(c):
    """A coefficient as Polynomial holds it: an int when integral, else a
    Fraction."""
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """Sparse multivariate polynomial over Q: a map monomial -> coefficient.

    A coefficient is an int when it is integral and a Fraction otherwise
    (see _q), so integer arithmetic stays on Python ints.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _q(Fraction(c))
                if c:
                    clean[m] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def const(cls, value):
        return cls({_ONE_MONO: value})

    @classmethod
    def var(cls, name):
        return _raw({Monomial.var(name): 1})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        t = self.terms
        return len(t) == 1 and t.get(_ONE_MONO) == 1

    def is_constant(self):
        t = self.terms
        return not t or (len(t) == 1 and _ONE_MONO in t)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get(_ONE_MONO, 0))

    def variables(self):
        out = set()
        for m in self.terms:
            out |= m.variables()
        return frozenset(out)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        res = dict(self.terms)
        get = res.get
        for m, c in other.terms.items():
            s = get(m, 0) + c
            if s:
                res[m] = s if s.__class__ is int else _q(s)
            else:
                del res[m]
        return _raw(res)

    def __sub__(self, other):
        if not other.terms:
            return self
        res = dict(self.terms)
        get = res.get
        for m, c in other.terms.items():
            s = get(m, 0) - c
            if s:
                res[m] = s if s.__class__ is int else _q(s)
            else:
                del res[m]
        return _raw(res)

    def __neg__(self):
        return _raw({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        res = {}
        get = res.get
        theirs = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in theirs:
                m = m1 * m2
                s = get(m, 0) + c1 * c2
                if s:
                    res[m] = s if s.__class__ is int else _q(s)
                else:
                    del res[m]
        return _raw(res)

    def scale(self, factor):
        factor = _q(Fraction(factor))
        if not factor:
            return _ZERO
        if factor == 1:
            return self
        return _raw({m: _q(c * factor) for m, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda mc: mc[0].exps)))

    def evaluate(self, bindings):
        """Evaluate at a full assignment name -> Fraction."""
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m.exps:
                if v not in bindings:
                    raise UnboundParameter("parameter %r is not bound" % v)
                val *= Fraction(bindings[v]) ** e
            total += val
        return total

    def substitute(self, bindings):
        """Partially substitute some variables by rationals; keep the rest."""
        values = {v: _q(Fraction(x)) for v, x in bindings.items()}
        res = {}
        for m, c in self.terms.items():
            kept = []
            for v, e in m.exps:
                if v in values:
                    c *= values[v] ** e
                else:
                    kept.append((v, e))
            if c:
                mono = Monomial._canonical(tuple(kept), sum(e for _, e in kept))
                res[mono] = res.get(mono, 0) + c
        return _raw({m: _q(c) for m, c in res.items() if c})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            body = _term_str(m, abs(c))
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % self


def _raw(terms):
    p = Polynomial.__new__(Polynomial)
    p.terms = terms
    return p


# shared and never mutated, like every Polynomial
_ZERO = _raw({})
_ONE = _raw({_ONE_MONO: 1})


def _term_str(mono, coeff):
    if mono.is_unit():
        return str(coeff)
    if coeff == 1:
        return str(mono)
    return "%s*%s" % (coeff, mono)


# --- multivariate gcd ---------------------------------------------------------
#
# Primitive PRS in a main variable, recursing on the coefficients.  Its cost
# has no bound: the coefficients of the pseudo-remainders can swell, so even a
# gcd of small 4-variable inputs can take tens of seconds (see ROADMAP item 1,
# a gcd with a bounded worst case).


def _as_univariate(p, x):
    """View p as a polynomial in x with Polynomial coefficients."""
    coeffs = {}
    for m, c in p.terms.items():
        e = 0
        rest = []
        for v, ve in m.exps:
            if v == x:
                e = ve
            else:
                rest.append((v, ve))
        # distinct monomials of p stay distinct once x is split off
        coeffs.setdefault(e, {})[Monomial._canonical(tuple(rest), m.degree - e)] = c
    return {e: _raw(bucket) for e, bucket in coeffs.items()}


def _from_univariate(coeffs, x):
    out = _ZERO
    for e, poly in coeffs.items():
        out = out + poly * _raw({Monomial.var(x, e) if e else _ONE_MONO: 1})
    return out


def _univ_degree(coeffs):
    return max((e for e, p in coeffs.items() if not p.is_zero()), default=-1)


def exact_div(p, d):
    """Exact multivariate division; raises ValueError if d does not divide p."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if d.is_one():
        return p
    quo = {}
    rem = p
    dlm = d.leading_monomial()
    inv = _q(Fraction(1, d.terms[dlm]))
    while rem.terms:
        rlm = rem.leading_monomial()
        if not dlm.divides(rlm):
            raise ValueError("division is not exact")
        # the leading monomial of rem falls strictly, so each qm is new
        qm = rlm // dlm
        qc = _q(rem.terms[rlm] * inv)
        quo[qm] = qc
        rem = rem - d * _raw({qm: qc})
    return _raw(quo)


def _pseudo_rem(a, b, x):
    """Pseudo-remainder of a by b as univariate polynomials in x."""
    db = _univ_degree(b)
    lb = b[db]
    r = dict(a)
    while True:
        dr = _univ_degree(r)
        if dr < db:
            break
        lr = r[dr]
        # r := lb*r - lr * x^(dr-db) * b
        new = {}
        for e, p in r.items():
            new[e] = p * lb
        for e, p in b.items():
            shifted = e + dr - db
            new[shifted] = new.get(shifted, _ZERO) - p * lr
        r = {e: p for e, p in new.items() if not p.is_zero()}
    return r


def _primitive(coeffs):
    """Content (gcd of the coefficients) and primitive part of a polynomial
    in its univariate view."""
    content = _ZERO
    for _, c in sorted(coeffs.items()):
        content = poly_gcd(content, c)
    return content, {e: exact_div(c, content) for e, c in coeffs.items()}


def poly_gcd(p, q):
    """Gcd of multivariate polynomials over Q, normalized monic."""
    if p.is_zero():
        return _monic(q)
    if q.is_zero():
        return _monic(p)
    if p.is_constant() or q.is_constant():
        return _ONE
    # single-term operands: the gcd is the largest monomial dividing everything
    if len(p.terms) == 1 or len(q.terms) == 1:
        g = None
        for poly in (p, q):
            for m in poly.terms:
                g = m if g is None else g.gcd(m)
        return _raw({g: 1})
    x = min(p.variables() | q.variables(), key=name_key)
    cont_p, a = _primitive(_as_univariate(p, x))
    cont_q, b = _primitive(_as_univariate(q, x))
    cont = poly_gcd(cont_p, cont_q)
    if _univ_degree(a) < _univ_degree(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b, x)
        a, b = b, (_primitive(r)[1] if r else {})
    return _monic(_from_univariate(a, x) * cont)


def _monic(p):
    if p.is_zero():
        return p
    lc = p.leading_coeff()
    if lc == 1:
        return p
    return p.scale(Fraction(1, lc))


# --- Scalar --------------------------------------------------------------------


class Scalar:
    """Canonical rational function num/den over Q.

    Invariants: den is nonzero and monic, gcd(num, den) = 1.  Equality and
    hashing are structural, which coincides with cross-multiplied equality
    because the form is canonical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = _ONE
        canonical = normalize(num, den)
        self.num = canonical.num
        self.den = canonical.den

    # normalize() builds instances directly via _make to avoid recursion
    @classmethod
    def _make(cls, num, den):
        s = cls.__new__(cls)
        s.num = num
        s.den = den
        return s

    @classmethod
    def zero(cls):
        return _S_ZERO

    @classmethod
    def one(cls):
        return _S_ONE

    @classmethod
    def from_fraction(cls, value):
        """The constant Scalar of an int or a Fraction; the one gate that
        keeps inexact numbers (float, Decimal, str) out of the field."""
        if not isinstance(value, (int, Fraction)):
            raise TypeError("cannot coerce %r to Scalar" % (value,))
        return cls._make(Polynomial.const(value), _ONE)

    @classmethod
    def var(cls, name):
        return cls._make(Polynomial.var(name), _ONE)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def variables(self):
        return self.num.variables() | self.den.variables()

    def __add__(self, other):
        return _sum(self, _coerce(other), Polynomial.__add__)

    __radd__ = __add__

    def __sub__(self, other):
        return _sum(self, _coerce(other), Polynomial.__sub__)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Scalar._make(-self.num, self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if self.den.is_one() and other.den.is_one():
            return Scalar._make(self.num * other.num, self.den)
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero scalar")
        # times other's reciprocal, its denominator made monic
        return _product(self.num, self.den, *_monic_pair(other.den, other.num))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n):
        # num^n and den^n stay coprime, so no gcd is needed
        num, den = self.num, self.den
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("zero scalar to a negative power")
            num, den, n = den, num, -n
        out_num = out_den = _ONE
        for _ in range(n):
            out_num = out_num * num
            out_den = out_den * den
        return Scalar._make(*_monic_pair(out_num, out_den))

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes as its Fraction value, as it compares equal to it
        if self.den.is_one() and self.num.is_constant():
            return hash(self.num.terms.get(_ONE_MONO, 0))
        return hash((self.num, self.den))

    def specialize(self, bindings):
        """Evaluate at a full parameter assignment; returns a Fraction."""
        den = self.den.evaluate(bindings)
        if den == 0:
            raise SpecializedDenominatorZero(
                "denominator %s vanishes at %s" % (self.den, dict(bindings)))
        return self.num.evaluate(bindings) / den

    def substitute(self, bindings):
        """Partially substitute parameters by rationals; returns a Scalar."""
        den = self.den.substitute(bindings)
        if den.is_zero():
            raise SpecializedDenominatorZero(
                "denominator %s vanishes under %s" % (self.den, dict(bindings)))
        return normalize(self.num.substitute(bindings), den)

    def nonzero_constraints(self):
        """Constraints under which this scalar is defined, as strings.

        A single-term denominator a2^2*a5 contributes 'a2 != 0', 'a5 != 0';
        a multi-term denominator is reported verbatim.
        """
        return nonzero_constraints(self.den)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "Scalar(%s)" % self


# shared and never mutated, like every Scalar
_S_ZERO = Scalar._make(_ZERO, _ONE)
_S_ONE = Scalar._make(_ONE, _ONE)


def _coerce(value):
    """value as a Scalar: a Scalar as it is, an int or Fraction as a
    constant; anything else raises TypeError (in from_fraction)."""
    if isinstance(value, Scalar):
        return value
    return Scalar.from_fraction(value)


def _sum(x, y, op):
    """x + y or x - y, as op is Polynomial.__add__ or Polynomial.__sub__."""
    if x.den.is_one() and y.den.is_one():
        return Scalar._make(op(x.num, y.num), _ONE)
    return normalize(op(x.num * y.den, y.num * x.den), x.den * y.den)


def _monic_pair(num, den):
    """num and den divided by den's leading coefficient, so den is monic."""
    lc = den.leading_coeff()
    if lc == 1:
        return num, den
    inv = Fraction(1, lc)
    return num.scale(inv), den.scale(inv)


def normalize(num, den):
    """Canonical Scalar for num/den; invariant under common factors."""
    if den.is_zero():
        raise ZeroDenominator("zero denominator polynomial")
    if num.is_zero():
        return _S_ZERO
    if not den.is_one():
        g = poly_gcd(num, den)
        if not g.is_one():
            num = exact_div(num, g)
            den = exact_div(den, g)
        num, den = _monic_pair(num, den)
    return Scalar._make(num, den)


def _product(a, b, c, d):
    """Canonical (a/b)(c/d) for canonical pairs a/b and c/d (Henrici).

    a/b and c/d are in lowest terms, so only gcd(a, d) and gcd(c, b) can
    cancel; with those divided out the product is coprime, and its
    denominator is monic as a product of monic factors.  Two gcds of the
    factors replace one gcd of the multiplied-out product.
    """
    if a.is_zero() or c.is_zero():
        return _S_ZERO
    g1 = poly_gcd(a, d)
    g2 = poly_gcd(c, b)
    return Scalar._make(exact_div(a, g1) * exact_div(c, g2),
                        exact_div(b, g2) * exact_div(d, g1))


def nonzero_constraints(poly):
    """Nonzero constraints implied by requiring poly != 0."""
    if poly.is_one() or poly.is_zero() or poly.is_constant():
        return ()
    if len(poly.terms) == 1:
        mono = next(iter(poly.terms))
        return tuple("%s != 0" % v for v in sorted(mono.variables(), key=name_key))
    return ("(%s) != 0" % poly,)
