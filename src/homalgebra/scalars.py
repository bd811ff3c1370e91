"""Exact arithmetic in Q(p1, ..., pm), the field of rational functions.

Every structure constant, matrix entry and residual in this package is a
Scalar: a quotient num/den of multivariate polynomials with rational
coefficients, kept in a canonical form so that equality is plain structural
equality.  Canonical form: gcd(num, den) = 1 and den monic under the graded
lexicographic monomial order (variables compared by a digit-aware name key,
so a2 < a10).  Everything here is immutable and pure.

Exactness has one gate, _exact: a number that enters a polynomial (a
coefficient, a scale factor, a value bound by evaluate or substitute) or a
Scalar (through _coerce: an operand, vector or matrix entry or structure
constant) must be an int or a Fraction, and anything else (a float, a
Decimal, a str) raises TypeError.  A constant Scalar equals and hashes as
its Fraction value.

A polynomial holds each coefficient as a Python int when it is integral and
as a Fraction otherwise, so the integer tables that make up most inputs are
computed on ints; constant_value() and evaluate() still return Fractions.

Monomials are packed ints.  Each polynomial records its layout (_Layout):
the names its keys may use, sorted by name_key, each with a field of
`width` bits, the earliest name in the most significant field, and the
total degree above all fields.  So a monomial product is one int addition,
grlex comparison is int comparison, and divisibility is one subtraction
checked against the guard bit at the top of each field.  Layouts belong to
polynomials, not to the process: an operation between two layouts works in
one of them when it holds the names and degrees of both operands, and
otherwise in a new layout over the union of their names; a product whose
degree would overflow a field goes to fields twice as wide.  A constant is
the key 0 in every layout and needs no re-packing, and a caller that knows
its variables in advance puts them in one layout (Scalar.gens,
shared_layout), as a table or map does with its constants (one_layout), so
arithmetic among them never re-packs.  A layout whose
keys would pass _PACK_BITS bits is wide (_Wide): its keys are tuples of
only the variables a monomial uses, so a term's size follows its own
variables, not the layout's.  Monomial is the public form of a monomial,
built only where monomials enter or leave this module; a caller that reads
values off keys, as a check's witness does, splits them with the layout's
splitter instead.  The zero and one polynomials and Scalars are shared
constants.

A power takes no gcd: num^n and den^n stay coprime when num and den are, so
s ** n is canonical by construction once its denominator is made monic.  A
product or quotient takes the two cross gcds of its factors, and a sum the
gcd of its denominators and at most one more with that (Henrici), never one
gcd of the multiplied-out result; a sum with a polynomial operand takes none.
A gcd of two multi-term polynomials is GCDHEU (poly_gcd) while its
evaluation point stays under _XI_BITS bits, and the primitive PRS past it.

A vector product or a map image is a sum of products per coordinate, and
_sums_of_products computes every one: the products whose factors have
denominator 1 are multiplied out into one {key: coefficient} dict, which
becomes one Scalar, and the others are Scalar products and sums with their
cross gcds.  Factors in two layouts, or a term product that would overflow
its layout, are re-packed once into one layout that holds every product.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, isqrt, lcm
from operator import neg

from .errors import (
    DivisionByZero,
    SpecializedDenominatorZero,
    UnboundParameter,
    ZeroDenominator,
)

_NAME_CHUNKS = re.compile(r"(\d+)")


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


def _exact(value):
    """value as a coefficient, an int or a Fraction as Polynomial holds it
    (see _q); anything else raises TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError("cannot coerce %r to an exact rational" % (value,))
    return _q(value)


def _q(c):
    """A coefficient as Polynomial holds it: an int when integral, else a
    Fraction."""
    return c.numerator if c.denominator == 1 else c


# --- layouts --------------------------------------------------------------------

# the most bits a packed key may take; a layout that would need more is wide
_PACK_BITS = 1024
_INF = float("inf")


class _Layout:
    """One packing of monomials into ints over fixed names; it never changes.

    names are sorted by name_key.  Each owns a field of `width` bits, the
    earliest name the most significant; the total degree sits above all
    fields, from bit `top`.  Every key's degree is below `cap`, so no field
    reaches its top bit, the guard (`guards` holds them all), and a key is
    below `limit`.
    """

    __slots__ = ("names", "nameset", "shift", "width", "mask", "top", "low",
                 "ones", "guards", "cap", "limit")

    def __init__(self, names, width):
        n = len(names)
        self.names = names
        self.nameset = frozenset(names)
        self.shift = {v: (n - 1 - i) * width for i, v in enumerate(names)}
        self.width = width
        self.mask = (1 << width) - 1
        self.top = n * width
        self.low = (1 << self.top) - 1
        # a 1 at the bottom of each field: the sum of 2^(k*width) for k < n
        self.ones = self.low // self.mask
        # one guard bit per field, at its top
        self.guards = self.ones << (width - 1)
        self.cap = 1 << (width - 1)
        self.limit = self.cap << self.top

    def pack(self, exps, degree):
        shift = self.shift
        key = degree << self.top
        for v, e in exps:
            key += e << shift[v]
        return key

    def power(self, v, e):
        return (e << self.top) + (e << self.shift[v])

    def degree(self, key):
        return key >> self.top

    def fields(self, key):
        """The name-sorted (variable, exponent) pairs of a key, read off its
        nonzero fields from the most significant down."""
        w, names = self.width, self.names
        last = len(names) - 1
        k = key & self.low
        out = []
        while k:
            s = (k.bit_length() - 1) // w * w
            e = k >> s
            out.append((names[last - s // w], e))
            k ^= e << s
        return tuple(out)

    def used(self, keys):
        """The name-sorted variables that occur in any of keys."""
        bits = 0
        for k in keys:
            bits |= k
        return tuple(v for v, _ in self.fields(bits))

    # the heap order of exact_div: the reverse of key order
    desc = staticmethod(neg)

    def divides(self, d, m):
        # no field borrows past its guard bit
        guards = self.guards
        return ((m | guards) - d) & guards == guards

    def split(self, key, v):
        """(e, key / v^e) for the exponent e of v in key."""
        s = self.shift[v]
        e = (key >> s) & self.mask
        return e, key - (e << s) - (e << self.top)

    def gcd(self, a, b):
        """The key of the largest monomial dividing the keys a and b: each
        field the lesser of the two, in a fixed number of int operations."""
        width, mask = self.width, self.mask
        # a field of a - b keeps its guard bit where a's exponent is >= b's
        ge = ((a | self.guards) - b) & self.guards
        keep = (ge >> (width - 1)) * mask
        key = (b & keep) | (a & ~keep & self.low)
        # times ones, the most significant field collects the sum of all
        # fields: every partial sum is below cap, so nothing carries
        degree = (key * self.ones >> (self.top - width)) & mask
        return key + (degree << self.top)

    def monomial(self, key):
        return Monomial._canonical(self.fields(key), self.degree(key))

    def splitter(self, groups):
        """A function that splits a key into (parts, rest): for each of
        groups, a tuple of names, the key of the factor of key in those
        names, found with one mask per group, and rest, key divided by all
        of them.  Names not in this layout are left out."""
        shift, fmask, top, ones = self.shift, self.mask, self.top, self.ones
        masks = [sum(fmask << shift[v] for v in names if v in shift)
                 for names in groups]
        low = top - self.width

        def split(key):
            parts = []
            for m in masks:
                f = key & m
                if f:
                    # times ones, the most significant field collects the
                    # degree of f, as in gcd
                    f += (f * ones >> low & fmask) << top
                    key -= f
                parts.append(f)
            return tuple(parts), key
        return split


class _Key(tuple):
    """A monomial key of a wide layout: (degree, -r1, e1, -r2, e2, ...) for
    the ranks r1 < r2 < ... of the variables it uses, so tuple order is
    grlex order.  As in a packed layout, the constant monomial is the int 0
    and the least key, + is the product and - the quotient by a divisor."""

    __slots__ = ()

    def __add__(self, other):
        if other.__class__ is not _Key:
            return self
        out = [self[0] + other[0]]
        i = j = 1
        na, nb = len(self), len(other)
        while i < na and j < nb:
            ra, rb = self[i], other[j]
            if ra == rb:
                out += (ra, self[i + 1] + other[j + 1])
                i += 2
                j += 2
            elif ra > rb:
                out += self[i:i + 2]
                i += 2
            else:
                out += other[j:j + 2]
                j += 2
        out += self[i:]
        out += other[j:]
        return _Key(out)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not _Key:
            return self
        theirs = dict(zip(other[1::2], other[2::2]))
        out = [self[0] - other[0]]
        for i in range(1, len(self), 2):
            e = self[i + 1] - theirs.get(self[i], 0)
            if e:
                out += (self[i], e)
        return _Key(out) if out[0] else 0

    def __lt__(self, other):
        return other.__class__ is _Key and tuple.__lt__(self, other)

    def __gt__(self, other):
        return other.__class__ is not _Key or tuple.__gt__(self, other)


class _Wide:
    """A layout whose packed keys would take more than _PACK_BITS bits: its
    keys are _Key tuples that hold only the variables a monomial uses, and
    its degrees have no cap.  The same methods as _Layout."""

    __slots__ = ("names", "nameset", "rank")
    cap = _INF
    limit = 0   # no product overflows

    def __init__(self, names):
        self.names = names
        self.nameset = frozenset(names)
        self.rank = {v: i for i, v in enumerate(names)}

    def pack(self, exps, degree):
        if not degree:
            return 0
        rank = self.rank
        key = [degree]
        for v, e in exps:
            key += (-rank[v], e)
        return _Key(key)

    def power(self, v, e):
        return _Key((e, -self.rank[v], e))

    def degree(self, key):
        return key[0] if key else 0

    def fields(self, key):
        names = self.names
        return tuple((names[-key[i]], key[i + 1])
                     for i in range(1, len(key), 2)) if key else ()

    def used(self, keys):
        ranks = set()
        for k in keys:
            if k:
                ranks.update(k[1::2])
        return tuple(self.names[-r] for r in sorted(ranks, reverse=True))

    @staticmethod
    def desc(key):
        # two keys of one degree differ before either ends, so negating
        # every entry reverses tuple order; the constant, least, goes last
        return tuple(-x for x in key) if key else (1,)

    def divides(self, d, m):
        if not d:
            return True
        mine = dict(zip(m[1::2], m[2::2])) if m else {}
        return all(mine.get(r, 0) >= e for r, e in zip(d[1::2], d[2::2]))

    def split(self, key, v):
        r = -self.rank[v]
        for i in range(1, len(key) if key else 0, 2):
            if key[i] == r:
                e = key[i + 1]
                rest = key[1:i] + key[i + 2:]
                return e, _Key((key[0] - e,) + rest) if rest else 0
        return 0, key

    def gcd(self, a, b):
        if not a or not b:
            return 0
        theirs = dict(zip(b[1::2], b[2::2]))
        key = [0]
        for r, e in zip(a[1::2], a[2::2]):
            e = min(e, theirs.get(r, 0))
            if e:
                key += (r, e)
                key[0] += e
        return _Key(key) if key[0] else 0

    def monomial(self, key):
        return Monomial._canonical(self.fields(key), self.degree(key))

    def splitter(self, groups):
        rank = self.rank
        group = {-rank[v]: g for g, names in enumerate(groups)
                 for v in names if v in rank}
        n = len(groups)

        def split(key):
            if not key:
                return (0,) * n, 0
            # each part and the rest as [degree, -rank, exponent, ...]
            parts = [[0] for _ in range(n)]
            rest = [0]
            for i in range(1, len(key), 2):
                r, e = key[i], key[i + 1]
                g = group.get(r)
                out = rest if g is None else parts[g]
                out += (r, e)
                out[0] += e
            return (tuple(_Key(p) if p[0] else 0 for p in parts),
                    _Key(rest) if rest[0] else 0)
        return split


def _layout(names, degree=0):
    """A layout over names (sorted by name_key) whose keys reach degree:
    fields of 8 bits, doubled until they hold it, or wide if the packed key
    would pass _PACK_BITS bits."""
    width = 8
    while degree >= 1 << (width - 1):
        width *= 2
    if (len(names) + 1) * width > _PACK_BITS:
        return _Wide(names)
    return _Layout(names, width)


_EMPTY = _Layout((), 8)


def _is_const(t):
    return not t or (len(t) == 1 and 0 in t)


def _degree(p):
    return p.ring.degree(max(p.terms)) if p.terms else 0


def _repack(p, layout):
    """p in layout, which holds p's names and degrees."""
    old, t = p.ring, p.terms
    if old is layout:
        return p
    if _is_const(t) or (old.names == layout.names and old.cap == layout.cap):
        # the same keys
        return _raw(t, layout)
    pack, fields, degree = layout.pack, old.fields, old.degree
    return _raw({pack(fields(k), degree(k)): c for k, c in t.items()}, layout)


def _common(p, q, product=False):
    """p and q in one layout that holds the names and degrees of both, and
    of their product if product is set: the layout of one of them when it
    does, else a new one over the union of their names.  A constant is the
    key 0 in every layout, so it takes the other's layout as it is."""
    a, b = p.ring, q.ring
    if _is_const(q.terms):
        return p, _raw(q.terms, a)
    if _is_const(p.terms):
        return _raw(p.terms, b), q
    degree = _degree(p) + _degree(q) if product else 0
    for layout, other in ((a, b), (b, a)):
        if (degree < layout.cap and other.cap <= layout.cap
                and other.nameset <= layout.nameset):
            break
    else:
        names = tuple(sorted(a.nameset | b.nameset, key=name_key))
        need = max(a.cap, b.cap, degree + 1)
        layout = _Wide(names) if need == _INF else _layout(names, need - 1)
    return _repack(p, layout), _repack(q, layout)


@total_ordering
class Monomial:
    """A product of variable powers; exponents are strictly positive.

    The public form of a monomial: exps is the name-sorted tuple of
    (variable, exponent) and degree the total degree.  Ordered by graded
    lex: total degree first, then variable-by-variable in name order (higher
    power of an earlier variable wins), which is the order of their keys.
    """

    __slots__ = ("exps", "degree")

    def __init__(self, exps=()):
        items = [(v, e) for v, e in dict(exps).items() if e != 0]
        if any(e < 0 for _, e in items):
            raise ValueError("negative exponent in monomial")
        items.sort(key=lambda ve: name_key(ve[0]))
        self.exps = tuple(items)
        self.degree = sum(e for _, e in items)

    @classmethod
    def _canonical(cls, exps, degree):
        """A monomial from a name-sorted tuple of positive exponents and
        its degree, taken as they are."""
        m = cls.__new__(cls)
        m.exps = exps
        m.degree = degree
        return m

    def variables(self):
        return frozenset(v for v, _ in self.exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

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

    def __str__(self):
        return _mono_str(self.exps)

    def __repr__(self):
        return "Monomial(%r)" % (self.exps,)


def _mono_str(exps):
    if not exps:
        return "1"
    return "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in exps)


class Polynomial:
    """Sparse multivariate polynomial over Q: a map from monomial keys to
    coefficients, in the layout `ring`, which holds every name they use.

    A coefficient is an int when it is integral and a Fraction otherwise
    (see _q), so integer arithmetic stays on Python ints.  The constant
    monomial is the key 0 in every layout.
    """

    __slots__ = ("terms", "ring")

    def __init__(self, terms=None):
        """terms: {Monomial: int or Fraction}."""
        items = [(m, _exact(c)) for m, c in terms.items()] if terms else []
        layout = _layout(
            tuple(sorted({v for m, _ in items for v, _ in m.exps},
                         key=name_key)),
            max((m.degree for m, _ in items), default=0))
        clean = {}
        for m, c in items:
            if c:
                clean[layout.pack(m.exps, m.degree)] = c
        self.terms = clean
        self.ring = layout

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def const(cls, value):
        c = _exact(value)
        return _raw({0: c} if c else {}, _EMPTY)

    @classmethod
    def var(cls, name):
        return cls.gens([name])[0]

    @classmethod
    def gens(cls, names):
        """The variables names, all in one layout, so that arithmetic among
        them never re-packs a key."""
        order = sorted(set(names), key=name_key) if len(names) > 1 else names
        return _gens(_layout(tuple(order)), names)

    def is_zero(self):
        return not self.terms

    def is_one(self):
        t = self.terms
        return len(t) == 1 and t.get(0) == 1

    def is_constant(self):
        t = self.terms
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get(0, 0))

    def variables(self):
        return frozenset(self.ring.used(self.terms))

    def monomials(self):
        """{Monomial: coefficient}, leading term first: the terms as read
        outside this module."""
        t, monomial = self.terms, self.ring.monomial
        return {monomial(k): t[k] for k in sorted(t, reverse=True)}

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.ring.monomial(max(self.terms))

    def leading_coeff(self):
        t = self.terms
        return t[max(t)]

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        if other.ring is not self.ring:
            self, other = _common(self, other)
        res = dict(self.terms)
        get = res.get
        for m, c in other.terms.items():
            s = get(m, 0) + c
            if s:
                res[m] = s if s.__class__ is int else _q(s)
            else:
                del res[m]
        return _raw(res, self.ring)

    def __sub__(self, other):
        if not other.terms:
            return self
        if other.ring is not self.ring:
            self, other = _common(self, other)
        res = dict(self.terms)
        get = res.get
        for m, c in other.terms.items():
            s = get(m, 0) - c
            if s:
                res[m] = s if s.__class__ is int else _q(s)
            else:
                del res[m]
        return _raw(res, self.ring)

    def __neg__(self):
        return _raw({m: -c for m, c in self.terms.items()}, self.ring)

    def __mul__(self, other):
        mine, theirs = self.terms, other.terms
        if not mine or not theirs:
            return _ZERO
        layout = self.ring
        if other.ring is not layout:
            # a constant is the key 0 in every layout
            if _is_const(mine):
                layout = other.ring
            elif not _is_const(theirs):
                self, other = _common(self, other, product=True)
                mine, theirs, layout = self.terms, other.terms, self.ring
        # the fields cannot carry, so the sum of the leading keys holds the
        # product's degree
        elif layout.limit and max(mine) + max(theirs) >= layout.limit:
            self, other = _common(self, other, product=True)
            mine, theirs, layout = self.terms, other.terms, self.ring
        res = {}
        get = res.get
        theirs = theirs.items()
        for m1, c1 in mine.items():
            for m2, c2 in theirs:
                m = m1 + m2
                s = get(m, 0) + c1 * c2
                if s:
                    res[m] = s if s.__class__ is int else _q(s)
                else:
                    del res[m]
        return _raw(res, layout)

    def scale(self, factor):
        factor = _exact(factor)
        if not factor:
            return _ZERO
        if factor == 1:
            return self
        return _raw({m: _q(c * factor) for m, c in self.terms.items()},
                    self.ring)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return False
        if other.ring is not self.ring:
            self, other = _common(self, other)
        return self.terms == other.terms

    def __hash__(self):
        fields = self.ring.fields
        return hash(frozenset((fields(m), c) for m, c in self.terms.items()))

    def evaluate(self, bindings):
        """Evaluate at a full assignment name -> int or Fraction."""
        values = {v: _exact(x) for v, x in bindings.items()}
        fields = self.ring.fields
        total = Fraction(0)
        for m, c in self.terms.items():
            for v, e in fields(m):
                if v not in values:
                    raise UnboundParameter("parameter %r is not bound" % v)
                c *= values[v] ** e
            total += c
        return total

    def substitute(self, bindings):
        """Partially substitute some variables by rationals; keep the rest."""
        values = {v: _exact(x) for v, x in bindings.items()}
        layout = self.ring
        fields, split = layout.fields, layout.split
        res = {}
        for m, c in self.terms.items():
            for v, e in fields(m):
                if v in values:
                    c *= values[v] ** e
                    m = split(m, v)[1]
            if c:
                res[m] = res.get(m, 0) + c
        return _raw({m: _q(c) for m, c in res.items() if c}, layout)

    def __str__(self):
        t = self.terms
        if not t:
            return "0"
        fields = self.ring.fields
        parts = []
        for m in sorted(t, reverse=True):
            c = t[m]
            body = _term_str(fields(m), abs(c))
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % self


def _raw(terms, ring):
    p = Polynomial.__new__(Polynomial)
    p.terms = terms
    p.ring = ring
    return p


def _gens(layout, names):
    return [_raw({layout.power(v, 1): 1}, layout) for v in names]


# shared and never mutated, like every Polynomial
_ZERO = _raw({}, _EMPTY)
_ONE = _raw({0: 1}, _EMPTY)


def _term_str(exps, coeff):
    if not exps:
        return str(coeff)
    if coeff == 1:
        return _mono_str(exps)
    return "%s*%s" % (coeff, _mono_str(exps))


# --- multivariate gcd ---------------------------------------------------------
#
# GCDHEU, and the primitive PRS past _XI_BITS.  A level's xi is twice the
# norm of the image above it, so at degree 2 and up its size doubles per
# level: with A the sum of the squares of n names, gcd(A, A + 1) sets xi
# to 49 000 bits at n = 14 and twice that per further name, while the PRS
# takes one pseudo-remainder for it.  The largest xi over 3 000 seeded
# 4-variable draws of the test suite's shape (degree up to 7 per factor,
# coefficients up to 50) had 15 847 bits.  The PRS's own cost has no bound
# either: its pseudo-remainders' coefficients can swell (ROADMAP item 1).
_XI_BITS = 1 << 16


def _as_univariate(p, x):
    """View p as a polynomial in x with Polynomial coefficients."""
    layout = p.ring
    split = layout.split
    coeffs = {}
    for m, c in p.terms.items():
        e, rest = split(m, x)
        # distinct monomials of p stay distinct once x is split off
        coeffs.setdefault(e, {})[rest] = c
    return {e: _raw(bucket, layout) for e, bucket in coeffs.items()}


def _from_univariate(coeffs, x):
    out = _ZERO
    for e, poly in coeffs.items():
        if e:
            layout = poly.ring
            if x not in layout.nameset or e >= layout.cap:
                layout = _layout((x,), e)
            xe = _raw({layout.power(x, e): 1}, layout)
        else:
            xe = _ONE
        out = out + poly * xe
    return out


def _univ_degree(coeffs):
    return max((e for e, p in coeffs.items() if not p.is_zero()), default=-1)


def exact_div(p, d):
    """Exact multivariate division; raises ValueError if d does not divide p.

    One private remainder is changed in place, and a heap of its keys (a
    key cancelled since it was pushed is skipped) gives each leading term,
    so a division costs the terms it touches times a log, not a copy and a
    scan of the remainder per quotient term."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if d.is_one():
        return p
    if p.ring is not d.ring:
        p, d = _common(p, d)
    layout = p.ring
    divides, desc = layout.divides, layout.desc
    rem = dict(p.terms)
    get = rem.get
    heap = [(desc(m), m) for m in rem]
    heapify(heap)
    dlm = max(d.terms)
    inv = _q(Fraction(1, d.terms[dlm]))
    tail = [(m, c) for m, c in d.terms.items() if m != dlm]
    quo = {}
    while rem:
        rlm = heappop(heap)[1]
        if rlm not in rem:
            continue
        if not divides(dlm, rlm):
            raise ValueError("division is not exact")
        # every key added below is under rlm, so the leading key falls
        # strictly and each qm is new
        qm = rlm - dlm
        qc = _q(rem.pop(rlm) * inv)
        quo[qm] = qc
        for m, c in tail:
            m += qm
            s = get(m, 0) - c * qc
            if not s:
                del rem[m]
                continue
            if m not in rem:
                heappush(heap, (desc(m), m))
            rem[m] = s if s.__class__ is int else _q(s)
    return _raw(quo, layout)


def poly_gcd(p, q):
    """Gcd of multivariate polynomials over Q, normalized monic: GCDHEU
    (_heu_gcd) for two multi-term operands, and the PRS past its cap."""
    return _gcd(p, q, _heu_gcd)


def _gcd(p, q, multi):
    """poly_gcd, with multi taking two multi-term operands in one layout."""
    if p.is_zero():
        return _monic(q)
    if q.is_zero():
        return _monic(p)
    if p.is_constant() or q.is_constant():
        return _ONE
    if p.ring is not q.ring:
        p, q = _common(p, q)
    layout = p.ring
    # single-term operands: the gcd is the largest monomial dividing everything
    if len(p.terms) == 1 or len(q.terms) == 1:
        g = None
        for poly in (p, q):
            for m in poly.terms:
                g = m if g is None else layout.gcd(g, m)
        return _raw({g: 1}, layout)
    return multi(p, q)


def _heu_gcd(p, q):
    """GCDHEU (Char, Geddes and Gonnet, 1989) over Z, its levels in a list,
    of two multi-term polynomials in one layout.  Down, each level takes out
    the operands' common integer content and sets the earliest variable x
    of the one with fewer terms to an integer xi, until an operand is an
    integer or zero.  Up, a level reads its candidate off the balanced
    base-xi digits of the gcd below (digit e is the coefficient of x^e),
    takes its primitive part h, and keeps h if exact_div divides both
    operands by it; else xi grows and the levels below are made again.  A
    kept h is the gcd G = h*q, q constant: q(xi) divides the digits'
    content, at most xi/2, and xi > 2|f| + 2 for an operand f, so by
    Cauchy's bound a nonconstant q | f has |q(xi)| > xi/2.  Each growth
    more than doubles xi, and an xi of more than _XI_BITS bits hands the
    whole gcd to the primitive PRS, so the loop ends.
    """
    layout = p.ring
    split, bound = layout.split, min(_degree(p), _degree(q))
    # [f, g, content, x, xi] per level, f and g with the content taken out
    levels = []
    f, g = (t.scale(lcm(*(c.denominator for c in t.terms.values()))).terms
            for t in (p, q))
    while True:
        while not (_is_const(f) or _is_const(g)):
            content = gcd(*f.values(), *g.values())
            f = {m: c // content for m, c in f.items()}
            g = {m: c // content for m, c in g.items()}
            x = layout.used(min(f, g, key=len))[0]
            xi = 2 * min(max(map(abs, f.values())),
                         max(map(abs, g.values()))) + 29
            if xi.bit_length() > _XI_BITS:
                return _prs_gcd(p, q)
            levels.append([f, g, content, x, xi])
            f, g = _at(f, x, xi, split), _at(g, x, xi, split)
        # xi is above twice the lesser norm, so at most one image vanishes
        h = {0: gcd(*f.values(), *g.values())} if f and g else f or g
        while levels:
            f, g, content, x, xi = level = levels[-1]
            try:
                cand = _raw(_digits(h, x, xi, layout, bound), layout)
                exact_div(_raw(f, layout), cand)
                exact_div(_raw(g, layout), cand)
            except ValueError:
                xi = level[4] = xi * 73794 * isqrt(isqrt(xi)) // 27011
                if xi.bit_length() > _XI_BITS:
                    return _prs_gcd(p, q)
                f, g = _at(f, x, xi, split), _at(g, x, xi, split)
                break
            h = {m: content * c for m, c in cand.terms.items()}
            levels.pop()
        else:
            return _monic(_raw(h, layout))


def _at(f, x, xi, split):
    """f, over Z, with x set to xi."""
    out = {}
    for m, c in f.items():
        e, m = split(m, x)
        out[m] = out.get(m, 0) + c * xi ** e
    return {m: c for m, c in out.items() if c}


def _digits(h, x, xi, layout, bound):
    """The primitive part of the polynomial whose coefficient of x^e is
    digit e of h's, in balanced base xi; ValueError for a term of degree
    above bound, which divides neither operand."""
    out = {}
    half = xi // 2
    for m, c in h.items():
        e = 0
        while c:
            d = (c + half) % xi - half
            if d:
                if layout.degree(m) + e > bound:
                    raise ValueError("candidate above the degree bound")
                out[m + layout.power(x, e) if e else m] = d
            c = (c - d) // xi
            e += 1
    content = gcd(*out.values())
    return {m: d // content for m, d in out.items()}


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
        content = _gcd(content, c, _prs_gcd)
    return content, {e: exact_div(c, content) for e, c in coeffs.items()}


def _prs_gcd(p, q):
    """Primitive PRS of two multi-term polynomials in one layout, in their
    earliest variable, its content gcds PRS too."""
    x = p.ring.used([*p.terms, *q.terms])[0]
    cont_p, a = _primitive(_as_univariate(p, x))
    cont_q, b = _primitive(_as_univariate(q, x))
    cont = _gcd(cont_p, cont_q, _prs_gcd)
    if _univ_degree(a) < _univ_degree(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b, x)
        a, b = b, (_primitive(r)[1] if r else {})
    return _monic(_from_univariate(a, x) * cont)


def _monic(p):
    if p.is_zero():
        return p
    return p.scale(Fraction(1, p.leading_coeff()))


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
        """The constant Scalar of an int or a Fraction; anything else
        (float, Decimal, str) raises TypeError (see _exact)."""
        return cls._make(Polynomial.const(value), _ONE)

    @classmethod
    def var(cls, name):
        return cls._make(Polynomial.var(name), _ONE)

    @classmethod
    def gens(cls, names):
        """The variables names, all in one layout (see Polynomial.gens)."""
        return [cls._make(p, _ONE) for p in Polynomial.gens(names)]


    def is_zero(self):
        return not self.num.terms

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
            return hash(self.num.terms.get(0, 0))
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


def shared_layout(values, names=(), degree=0):
    """(values, gens): the Scalars values re-packed into one layout that
    holds their variables and names, their degrees and degree, and the
    variables names as Scalars in that layout, so that arithmetic among all
    of them never re-packs a key.  Every denominator 1 becomes the shared
    _ONE, and a constant over it is returned as it is: the key 0 is the
    same in every layout.  For a caller that knows its variables in
    advance, such as a check on generic elements."""
    polys = [p for s in values if not (s.den.is_one() and s.num.is_constant())
             for p in (s.num, s.den)]
    # each layout ORs the keys of its polynomials and decodes them once
    terms = {}
    for p in polys:
        terms.setdefault(p.ring, []).append(p.terms)
    used = set(names).union(*(ring.used(chain.from_iterable(ts))
                              for ring, ts in terms.items()))
    layout = _layout(tuple(sorted(used, key=name_key)),
                     max([degree, *map(_degree, polys)]))
    packed = [s if s.den is _ONE and s.num.is_constant() else
              Scalar._make(_repack(s.num, layout), _ONE if s.den.is_one()
                           else _repack(s.den, layout))
              for s in values]
    return packed, [Scalar._make(p, _ONE) for p in _gens(layout, names)]


def _coerce(value):
    """value as a Scalar: a Scalar as it is, an int or Fraction as a
    constant; anything else raises TypeError (in _exact)."""
    if isinstance(value, Scalar):
        return value
    return Scalar.from_fraction(value)


def _sum(x, y, op):
    """x + y or x - y, as op is Polynomial.__add__ or Polynomial.__sub__.

    Henrici's sum of canonical a/b and c/d: only gcd(b, d) can cancel, and
    only against the part of the numerator over it, so the result takes a
    gcd of the denominators (none when one is 1) and at most one more gcd
    with that, never one of the multiplied-out sum.
    """
    if x.den.is_one() and y.den.is_one():
        return Scalar._make(op(x.num, y.num), _ONE)
    a, b, c, d = x.num, x.den, y.num, y.den
    # gcd(a*d + c, d) = gcd(c, d) = 1, so these are canonical as they stand
    if b.is_one():
        return Scalar._make(op(a * d, c), d)
    if d.is_one():
        return Scalar._make(op(a, c * b), b)
    if b == d:
        g = b
        t = op(a, c)
        bg = _ONE
    else:
        g = poly_gcd(b, d)
        if g.is_one():
            # coprime denominators: a product of monic factors
            return Scalar._make(op(a * d, c * b), b * d)
        bg = exact_div(b, g)
        t = op(a * exact_div(d, g), c * bg)
    if t.is_zero():
        return _S_ZERO
    g2 = poly_gcd(t, g)
    return Scalar._make(exact_div(t, g2), bg * exact_div(d, g2))


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


def _sums_of_products(rows):
    """The Scalars sum(prod(factors) for factors in row), one per row of the
    list rows (None for an empty row), each tuple two or more Scalars: the
    multiply-accumulate of a vector product or a map image.

    Tuples whose factors all have denominator 1 (tested by identity first:
    shared_layout makes each the shared _ONE) are multiplied out into one
    {key: coefficient} dict per row, one _q per coefficient at the end
    (Johnson 1974).  The others are Scalar products and sums, whose cross
    gcds cancel each denominator as they go (Henrici); the dict's Scalar is
    added last.  Dict factors in two layouts, or a term product at its
    layout's limit (every key is below it, so a product whose degree would
    overflow the fields reaches it), re-pack the rows once (_repacked) and
    start again.
    """
    ring = None
    out = []
    for row in rows:
        acc = {}
        get = acc.get
        total = None
        for factors in row or ():
            for s in factors:
                if s.den is not _ONE and not s.den.is_one():
                    factors = reversed(factors)
                    product = next(factors)
                    for s in factors:
                        product = s * product
                    total = product if total is None else total + product
                    break
            else:
                # part: the terms of the factors before last, multiplied out
                part = last = None
                for s in factors:
                    p = s.num
                    t = p.terms
                    if (p.ring is not ring and p.ring is not _EMPTY
                            and not _is_const(t)):
                        if ring is not None:
                            return _sums_of_products(_repacked(rows))
                        ring = p.ring
                    if last is not None:
                        part = last if part is None else [
                            (k1 + k2, c1 * c2) for k1, c1 in part
                            for k2, c2 in last]
                    last = t.items()
                for k1, c1 in part:
                    for k2, c2 in last:
                        k = k1 + k2
                        acc[k] = get(k, 0) + c1 * c2
        if not acc:
            out.append(_S_ZERO if total is None else total)
            continue
        if ring is not None and ring.limit and max(acc) >= ring.limit:
            return _sums_of_products(_repacked(rows))
        terms = {k: c if c.__class__ is int else _q(c)
                 for k, c in acc.items() if c}
        value = Scalar._make(_raw(terms, ring or _EMPTY), _ONE) \
            if terms else _S_ZERO
        out.append(value if total is None else total + value)
    return out


def _repacked(rows):
    """rows with every non-constant factor of the tuples whose factors all
    have denominator 1 re-packed into one layout that holds the degree of
    each such tuple's product."""
    polys = {}
    degree = 0
    for factors in chain.from_iterable(filter(None, rows)):
        if all(s.den.is_one() for s in factors):
            mine = [s for s in factors if not s.num.is_constant()]
            polys.update((id(s), s) for s in mine)
            degree = max(degree, sum(_degree(s.num) for s in mine))
    packed = dict(zip(polys, shared_layout([*polys.values()], (), degree)[0]))
    return [[tuple(packed.get(id(s), s) for s in factors)
             for factors in row or ()] for row in rows]


def one_layout(values):
    """The list of Scalars values as it is when its polynomials that are not
    constants share one layout, else re-packed into one (shared_layout):
    for a table or a map whose constants were built one by one, each in a
    layout of its own names, so that products among them never re-pack."""
    rings = {s.num.ring for s in values} | {s.den.ring for s in values}
    if len(rings - {_EMPTY}) > 1:
        # a constant is the key 0 of whatever layout it is in
        rings = {p.ring for s in values for p in (s.num, s.den)
                 if not _is_const(p.terms)}
    return values if len(rings - {_EMPTY}) < 2 else shared_layout(values)[0]


def nonzero_constraints(poly):
    """Nonzero constraints implied by requiring poly != 0."""
    if poly.is_one() or poly.is_zero() or poly.is_constant():
        return ()
    if len(poly.terms) == 1:
        (key,) = poly.terms
        return tuple("%s != 0" % v for v, _ in poly.ring.fields(key))
    return ("(%s) != 0" % poly,)
