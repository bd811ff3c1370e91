"""Algebras as sparse structure constants, with the constructive operations.

An AlgebraSpec fixes a basis b_0..b_{n-1} and a table of structure constants
c_{ij}^k meaning mu(b_i, b_j) = sum_k c_{ij}^k b_k, all entries exact Scalars
over the declared parameters.  On top of that: bilinear products of vectors,
linear maps (apply/compose/invert), endomorphism and morphism certificates,
the twist mu -> alpha o mu by an endomorphism, its untwist, the opposite
algebra, polarization, subalgebra closure and unit checks.

Check results are CheckReports with verdict holds / holds-under-assumptions /
fails.  "Under assumptions" means some scalar involved carries a denominator,
so the statement is exact on the open set where those denominators are
nonzero; the report lists the constraints.  A certificate is an identity,
checked as homalgebra.identities checks one: its residual on generic
elements, computed once, with the first failing basis pair (or vector) read
off its keys, so failing costs what holding does.

mul and apply_map (and so all built on them) compute every output
coordinate with one multiply-accumulate, scalars._sums_of_products, which
sums the products with denominator 1 in one coefficient dict and folds
those with a real denominator, as in the alt4 tables, in Scalar products
and sums that cancel it as they go (Henrici).  A spec keeps its structure
constants and twist map in one layout, and a map its entries, so products
among them never re-pack (scalars.shared_layout, in_layout); a copy is
given its layout (LinMap._in, AlgebraSpec._copy).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import (
    DimensionMismatch,
    MissingTwistMap,
    NotEndomorphism,
    SingularMap,
)
from .record import Record
from .scalars import (
    _ONE,
    Scalar,
    _coerce,
    _raw,
    _sums_of_products,
    in_layout,
    name_key,
    nonzero_constraints,
    normalize,
    shared_layout,
)


class Vector:
    """Element of the algebra: a coordinate tuple of Scalars."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(_coerce(c) for c in coords)

    @classmethod
    def _of(cls, coords):
        """The vector of the Scalars coords, taken as they are."""
        v = cls.__new__(cls)
        v.coords = tuple(coords)
        return v

    @classmethod
    def zero(cls, dim):
        return cls([Scalar.zero()] * dim)

    @classmethod
    def basis(cls, dim, index):
        coords = [Scalar.zero()] * dim
        coords[index] = Scalar.one()
        return cls(coords)

    @property
    def dim(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other):
        _same_dim(self, other)
        return Vector([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        _same_dim(self, other)
        return Vector([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return Vector([-a for a in self.coords])

    def scale(self, scalar):
        scalar = _coerce(scalar)
        return Vector([scalar * a for a in self.coords])

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def describe(self, basis):
        """Human-readable combination like '(a-1)*e1 + e3'."""
        parts = []
        for c, label in zip(self.coords, basis):
            if c.is_zero():
                continue
            if c.is_one():
                parts.append(label)
            else:
                parts.append("(%s)*%s" % (c, label))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "Vector(%s)" % (", ".join(str(c) for c in self.coords))


def _same_dim(u, v):
    if u.dim != v.dim:
        raise DimensionMismatch("vector dimensions differ: %d vs %d" % (u.dim, v.dim))


class LinMap:
    """Square matrix of Scalars; column j is the image of basis vector j.
    The entries are in one layout (scalars.shared_layout, in_layout)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        # lists for now: _in makes the rows, in the layout
        self.rows = [[_coerce(x) for x in row] for row in rows]
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise DimensionMismatch("linear map matrix must be square")
        self.rows = self._in(shared_layout(
            [*chain.from_iterable(self.rows)])[0]).rows

    def _in(self, layout):
        """This map with its entries in layout, which holds them."""
        g = LinMap.__new__(LinMap)
        home = (layout, _ONE.ring)   # as in _set_table
        g.rows = tuple([tuple([x if x.den is _ONE and x.num.ring in home
                               else in_layout(x, layout) for x in row])
                        for row in self.rows])
        return g

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        return cls([[entries[i] if i == j else Scalar.zero() for j in range(n)]
                    for i in range(n)])

    @property
    def dim(self):
        return len(self.rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def scalars(self):
        for row in self.rows:
            yield from row

    def substitute(self, bindings):
        return LinMap([[x.substitute(bindings) for x in row] for row in self.rows])

    def __eq__(self, other):
        return isinstance(other, LinMap) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "LinMap(%s)" % "; ".join(
            ", ".join(str(x) for x in row) for row in self.rows)


def identity(n):
    return LinMap.diagonal([Scalar.one()] * n)


def _support(v):
    """The (index, coordinate) pairs of v's nonzero coordinates."""
    return [(j, c) for j, c in enumerate(v.coords) if not c.is_zero()]


def apply_map(f, v):
    if f.dim != v.dim:
        raise DimensionMismatch("map dimension %d vs vector dimension %d"
                                % (f.dim, v.dim))
    support = _support(v)
    return Vector._of(_sums_of_products([[(row[j], c) for j, c in support
                                          if not row[j].is_zero()]
                                         for row in f.rows]))


def compose(f, g):
    """The map applying g first, then f."""
    if f.dim != g.dim:
        raise DimensionMismatch("composed maps must share a dimension")
    columns = [apply_map(f, Vector(column)).coords for column in zip(*g.rows)]
    return LinMap(zip(*columns))


def invert(f):
    """Exact inverse: [f | I] by Gauss-Jordan; SingularMap if det = 0."""
    n = f.dim
    rows = []
    # [f | I] has rank n: a pivot past column col means none in col
    for col, (c, _, row) in enumerate(_gauss_jordan(
            [row + unit for row, unit in zip(f.rows, identity(n).rows)])):
        if c != col:
            raise SingularMap("matrix is singular (no pivot in column %d)"
                              % col)
        rows.append(row)
    zero = Scalar.zero()
    return LinMap([[row.get(c, zero) for c in range(n, 2 * n)]
                   for row in rows])


def _gauss_jordan(rows):
    """Gauss-Jordan elimination of rows (Scalar tuples of one length),
    column by column, the pivot row of a column the first remaining row
    nonzero there.  Yields each pivot as it is made, (column, entry before
    scaling, row), row a {column: Scalar} of its nonzero entries, reduced
    in place by later pivots to 1 at its own pivot column and 0 at the
    others'.  Zero entries are never touched."""
    rest = [{c: x for c, x in enumerate(row) if not x.is_zero()}
            for row in rows]
    zero = Scalar.zero()
    reduced = []
    for col in sorted(set().union(*rest)):
        i = next((i for i, r in enumerate(rest) if col in r), None)
        if i is None:
            continue
        row = rest.pop(i)
        p = row[col]
        if not p.is_one():
            row = {c: x / p for c, x in row.items()}
        for other in rest + reduced:
            factor = other.get(col)
            if factor is None:
                continue
            for c, x in row.items():
                y = other.get(c, zero) - factor * x
                if y.is_zero():
                    other.pop(c, None)
                else:
                    other[c] = y
        reduced.append(row)
        yield col, p, row


class Param(Record):
    __slots__ = ("name", "nonzero")

    def __init__(self, name, nonzero=False):
        self.name = name
        self.nonzero = nonzero


class Witness(Record):
    """Where a check failed and by how much."""

    __slots__ = ("at", "coordinate", "residual", "residual_vector",
                 "specialization")

    def __init__(self, at=None, coordinate=None, residual=None,
                 residual_vector=None, specialization=None):
        self.at = at                  # offending basis labels, e.g. ("e1", "e2")
        self.coordinate = coordinate  # label of the first nonzero coordinate
        self.residual = residual      # that coordinate's value
        self.residual_vector = residual_vector
        # var name -> tuple of Fractions (generic checks)
        self.specialization = specialization

    def to_json(self):
        out = {}
        if self.at is not None:
            out["at"] = list(self.at)
        if self.coordinate is not None:
            out["coordinate"] = self.coordinate
        if self.residual is not None:
            out["residual"] = str(self.residual)
        if self.specialization is not None:
            out["specialization"] = {
                v: [str(c) for c in coords]
                for v, coords in self.specialization.items()
            }
        return out


class CheckReport(Record):
    __slots__ = ("verdict", "witness", "assumptions")

    def __init__(self, verdict, witness=None, assumptions=()):
        self.verdict = verdict          # holds | holds-under-assumptions | fails
        self.witness = witness
        self.assumptions = assumptions

    @property
    def holds(self):
        return self.verdict != "fails"


def _verdict(assumptions):
    return "holds-under-assumptions" if assumptions else "holds"


def _collect_constraints(*sources):
    """Union of denominator constraints over scalars from the given sources."""
    seen = []
    for source in sources:
        for s in source:
            for c in s.nonzero_constraints():
                if c not in seen:
                    seen.append(c)
    return tuple(sorted(seen, key=name_key))


class AlgebraSpec:
    """Finite-dimensional algebra over Q(params), by structure constants.

    params are Param declarations.  mu is a sparse mapping
    (i, j) -> {k: Scalar}; omitted products are zero.  alpha, when present,
    is the twisting map of the Hom-structure.  unit is an optional basis
    index.  The structure constants and alpha's entries are in one layout
    (scalars.shared_layout, in_layout).
    """

    __slots__ = ("name", "dim", "basis", "params", "mu", "alpha", "unit",
                 "_table")

    def __init__(self, name, dim, basis, params=(), mu=(), alpha=None, unit=None):
        self.name = name
        self.dim = dim
        self.basis = tuple(basis)
        if len(self.basis) != dim:
            raise ValueError("expected %d basis labels, got %d" % (dim, len(self.basis)))
        if len(set(self.basis)) != dim:
            raise ValueError("basis labels must be distinct")
        self.params = tuple(params)
        if len({p.name for p in self.params}) != len(self.params):
            raise ValueError("duplicate parameter declaration")

        entries = []
        seen = set()
        declared = {p.name for p in self.params}
        for i, j, k, c in mu:
            c = _coerce(c)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError("structure constant index out of range: %r"
                                 % ((i, j, k),))
            if (i, j, k) in seen:
                raise ValueError("duplicate structure constant at %r" % ((i, j, k),))
            seen.add((i, j, k))
            if c.is_zero():
                continue
            extra = c.variables() - declared
            if extra:
                raise ValueError("structure constant uses undeclared parameters %s"
                                 % sorted(extra))
            entries.append((i, j, k, c))
        entries.sort(key=lambda e: e[:3])
        self._set_table(entries, alpha, None)
        if unit is not None and not (0 <= unit < dim):
            raise ValueError("unit index out of range")
        self.unit = unit

    def _copy(self, alpha, layout):
        """This spec with the twist map alpha, all in layout (see _set_table);
        only alpha's dimension is checked, as self's table was validated."""
        A = AlgebraSpec.__new__(AlgebraSpec)
        A.name, A.dim, A.basis = self.name, self.dim, self.basis
        A.params, A.unit = self.params, self.unit
        A._set_table(self.mu, alpha, layout)
        return A

    def _set_table(self, mu, alpha, layout):
        """Set mu, alpha and _table ({(i, j): [(k, c), ...]}) from the
        entries mu and the twist map alpha (None or of dimension dim), their
        Scalars in layout, or in one that holds them if it is None."""
        if alpha is not None and alpha.dim != self.dim:
            raise DimensionMismatch("twisting map dimension %d vs algebra "
                                    "dimension %d" % (alpha.dim, self.dim))
        if layout is None:
            values = [e[3] for e in mu]
            if alpha is not None:
                values += chain.from_iterable(alpha.rows)
            layout = shared_layout(values)[0]
        # in_layout's own test, inline for the many entries already there:
        # denominator 1 and the numerator in layout or a constant's layout
        home = (layout, _ONE.ring)
        self.mu = tuple([e if e[3].den is _ONE and e[3].num.ring in home
                         else (*e[:3], in_layout(e[3], layout)) for e in mu])
        self.alpha = None if alpha is None else alpha._in(layout)
        self._table = table = {}
        for i, j, k, c in self.mu:
            table.setdefault((i, j), []).append((k, c))

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_table(cls, name, basis, table, params=(), alpha=None, unit=None):
        """Build from a label-keyed table {(li, lj): {lk: scalar}}."""
        basis = tuple(basis)
        index = {label: i for i, label in enumerate(basis)}
        mu = []
        for (li, lj), value in table.items():
            for lk, c in value.items():
                mu.append((index[li], index[lj], index[lk], c))
        unit_index = index[unit] if isinstance(unit, str) else unit
        return cls(name, len(basis), basis, params=params, mu=mu,
                   alpha=alpha, unit=unit_index)

    def label_index(self, label):
        try:
            return self.basis.index(label)
        except ValueError:
            raise ValueError("unknown basis label %r" % label) from None

    def basis_vector(self, i):
        if isinstance(i, str):
            i = self.label_index(i)
        return Vector.basis(self.dim, i)

    def product_on_basis(self, i, j):
        coords = [Scalar.zero()] * self.dim
        for k, c in self._table.get((i, j), ()):
            coords[k] = c
        return Vector(coords)

    def mu_scalars(self):
        for _, _, _, c in self.mu:
            yield c

    def param_names(self):
        return tuple(p.name for p in self.params)

    def with_alpha(self, alpha):
        return self._copy(alpha, None)

    def with_identity_alpha(self):
        return self.with_alpha(identity(self.dim))

    def substitute(self, bindings):
        """Specialize some parameters to rationals, keeping the rest."""
        remaining = tuple(p for p in self.params if p.name not in bindings)
        mu = [(i, j, k, c.substitute(bindings)) for i, j, k, c in self.mu]
        alpha = self.alpha.substitute(bindings) if self.alpha else None
        return AlgebraSpec(self.name, self.dim, self.basis, remaining, mu,
                           alpha, self.unit)

    def __eq__(self, other):
        return (isinstance(other, AlgebraSpec)
                and self.name == other.name
                and self.dim == other.dim
                and self.basis == other.basis
                and self.params == other.params
                and self.mu == other.mu
                and self.alpha == other.alpha
                and self.unit == other.unit)

    def same_table(self, other):
        """Structure constants agree entry by entry (names etc. ignored)."""
        return self.dim == other.dim and self.mu == other.mu

    def __repr__(self):
        return "AlgebraSpec(%r, dim=%d, %d products%s)" % (
            self.name, self.dim, len(self.mu),
            ", twisted" if self.alpha else "")


# --- operations -------------------------------------------------------------------


def mul(A, u, v):
    """Bilinear product of two vectors via the structure constants."""
    if u.dim != A.dim or v.dim != A.dim:
        raise DimensionMismatch("vector dimensions do not match the algebra")
    rows = {}
    table = A._table
    vs = _support(v)
    for i, ui in _support(u):
        for j, vj in vs:
            ks = table.get((i, j))
            if ks:
                # with a denominator, u_i * v_j once per pair, not per k
                pair = ((ui, vj) if ui.den is _ONE and vj.den is _ONE
                        else (ui * vj,))
                for k, c in ks:
                    rows.setdefault(k, []).append((c, *pair))
    return Vector._of(_sums_of_products([rows.get(k) for k in range(A.dim)]))


def is_endomorphism(A, f):
    """Does f(mu(x, y)) = mu(f x, f y) hold for all x, y?  See _morphism."""
    if f.dim != A.dim:
        raise DimensionMismatch("map dimension %d vs algebra dimension %d"
                                % (f.dim, A.dim))
    return _morphism(A, A, f, False)


def _morphism(A, B, f, twisted):
    """f(mu_A(x, y)) = mu_B(f x, f y) on generic x, y and, if that holds
    and twisted is set, f(alpha_A(x)) = alpha_B(f x); a witness is in A's
    labels, its coordinate in B's."""
    tables, g, names, v, _ = _generic_elements(
        (A,) if A is B else (A, B), "xy", (), twisted, f)
    S, T, x, y = tables[0], tables[-1], v["x"], v["y"]
    gx = apply_map(g, x)
    value = apply_map(g, mul(S, x, y)) - mul(T, gx, apply_map(g, y))
    alphas = ()
    if twisted and value.is_zero():
        alphas = (A.alpha.scalars(), B.alpha.scalars())
        value = apply_map(g, apply_map(S.alpha, x)) - apply_map(T.alpha, gx)
        names = names[:1]
    return _certificate(_collect_constraints(
        A.mu_scalars(), B.mu_scalars(), f.scalars(), *alphas),
        value, names, A.basis, B.basis)


def _certificate(assumptions, value, names, at_labels, labels):
    """Report of a residual on the generic coordinates names."""
    if value.is_zero():
        return CheckReport(_verdict(assumptions), None, assumptions)
    return CheckReport("fails", _basis_witness(value, names, at_labels,
                                               labels), assumptions)


def _defect(at, labels, diff, specialization=None):
    """Witness for a nonzero vector, reported at its first nonzero
    coordinate."""
    k = next(k for k, c in enumerate(diff.coords) if not c.is_zero())
    return Witness(at=at, coordinate=labels[k], residual=diff.coords[k],
                   residual_vector=diff, specialization=specialization)


# --- generic elements --------------------------------------------------------


def _generic_elements(tables, variables, scalars=(), uses_alpha=False,
                      f=None):
    """The tables (one or two), the map f (or None), the twist maps if
    uses_alpha and the Scalars scalars (a candidate unit, the coefficients
    of an identity) copied into one layout with the generic coordinates of
    variables, so an evaluation never re-packs a key: the tables (with no
    twist map unless uses_alpha), f, those names (a list per variable),
    {var: generic element} and the scalars.  The coordinates of var are
    var_1, var_2, ..., each prefixed with g until it avoids every variable
    of these and every earlier name."""
    dim = tables[0].dim
    maps = [f] * (f is not None) + [T.alpha for T in tables] * uses_alpha
    mus = [c for T in tables for c in T.mu_scalars()]
    entries = [c for m in maps for c in m.scalars()]
    scalars = list(scalars)
    # a table's constants use only its parameters; a map's are unchecked
    avoid = set().union(
        *(c.variables() for c in scalars),
        *(T.param_names() for T in tables),
        *(p.ring.names for c in entries for p in (c.num, c.den)))
    names = []
    for var in variables:
        for i in range(dim):
            name = "%s_%d" % (var, i + 1)
            while name in avoid:
                name = "g" + name
            avoid.add(name)
            names.append(name)
    layout, coords = shared_layout(mus + entries + scalars, names)
    cut = range(0, len(names), dim)
    return ([T._copy(T.alpha if uses_alpha else None, layout)
             for T in tables], None if f is None else f._in(layout),
            [names[n:n + dim] for n in cut],
            {var: Vector._of(coords[n:n + dim])
             for var, n in zip(variables, cut)},
            [in_layout(s, layout) for s in scalars])


def _basis_witness(value, names, at_labels, labels):
    """Witness at the first failing basis tuple, in at_labels, of the
    multilinear residual value on the generic coordinates names (a list per
    variable), at its first nonzero coordinate, in labels.  Each numerator
    monomial holds one generic coordinate of each variable, so the value at
    (b_i, b_j, ...) is the sum of the terms whose generic part is
    x_i*y_j*..., that part taken off, over the denominator; the tuple is
    the least over the generic parts of the keys, each key split once."""
    tools = {}
    rows = []
    for c in value.coords:
        layout = c.num.ring
        if layout not in tools:
            # the splitter, and the basis index of each generic coordinate
            # as a part of a key in this layout
            tools[layout] = (layout.splitter(names), [
                {layout.power(n, 1): i for i, n in enumerate(ns)
                 if n in layout.nameset} for ns in names])
        split, index = tools[layout]
        by_part = {}
        for key, coeff in c.num.terms.items():
            part, rest = split(key)
            terms = by_part.get(part)
            if terms is None:
                terms = by_part[part] = {}
            terms[rest] = coeff
        rows.append((layout, {tuple(map(dict.__getitem__, index, part)): terms
                              for part, terms in by_part.items()}))
    at = min(t for _, row in rows for t in row)
    at_value = Vector._of([normalize(_raw(row.get(at, {}), layout), c.den)
                           for (layout, row), c in zip(rows, value.coords)])
    return _defect(tuple(at_labels[i] for i in at), labels, at_value)


def yau_twist(A, f, force=False, name=None):
    """Twisted algebra with product f o mu and twisting map f.

    Refuses maps that are not endomorphisms of A unless force=True.
    """
    if f.dim != A.dim:
        raise DimensionMismatch("map dimension %d vs algebra dimension %d"
                                % (f.dim, A.dim))
    if not force:
        report = is_endomorphism(A, f)
        if not report.holds:
            raise NotEndomorphism(
                "map is not an endomorphism of %r (defect at %s)"
                % (A.name, report.witness.at), report)
    return AlgebraSpec(name or A.name + "_twist", A.dim, A.basis, A.params,
                       _mapped_products(A, f), alpha=f, unit=A.unit)


def untwist(A, name=None):
    """Recover the untwisted product alpha^{-1} o mu; clears the twist map."""
    if A.alpha is None:
        raise MissingTwistMap("algebra %r has no twisting map" % A.name)
    return AlgebraSpec(name or A.name + "_untwist", A.dim, A.basis, A.params,
                       _mapped_products(A, invert(A.alpha)), alpha=None,
                       unit=A.unit)


def _mapped_products(A, f):
    """Structure constants (i, j, k, c) of f o mu, A and f in one layout."""
    (A,), f, _, _, _ = _generic_elements((A,), (), (), False, f)
    return [(i, j, k, c) for i, j in A._table for k, c in
            enumerate(apply_map(f, A.product_on_basis(i, j)).coords)
            if not c.is_zero()]


def opposite(A, name=None):
    """Same space with the arguments of the product swapped."""
    mu_entries = [(j, i, k, c) for i, j, k, c in A.mu]
    return AlgebraSpec(name or A.name + "_op", A.dim, A.basis, A.params,
                       mu_entries, alpha=A.alpha, unit=A.unit)


def polarize(A, name=None):
    """Symmetrized product (mu(x,y) + mu(y,x)) / 2; twist map carried over."""
    half = Scalar.from_fraction(Fraction(1, 2))
    acc = {}
    for i, j, k, c in A.mu:
        acc[(i, j, k)] = acc.get((i, j, k), Scalar.zero()) + half * c
        acc[(j, i, k)] = acc.get((j, i, k), Scalar.zero()) + half * c
    mu_entries = [(i, j, k, c) for (i, j, k), c in acc.items() if not c.is_zero()]
    return AlgebraSpec(name or A.name + "_polarized", A.dim, A.basis, A.params,
                       mu_entries, alpha=A.alpha, unit=A.unit)


def is_morphism(A, B, f):
    """f o mu_A = mu_B o (f x f), and f o alpha_A = alpha_B o f when both
    twist maps are present.  See _morphism."""
    if A.dim != B.dim or f.dim != A.dim:
        raise DimensionMismatch("morphism check needs equal dimensions")
    return _morphism(A, B, f, A.alpha is not None and B.alpha is not None)


def check_unit(A, u):
    """Is u a two-sided unit: mul(u, x) = x = mul(x, u) for all x?  A
    failure is reported at its least basis vector, the left product first
    when both fail there."""
    if u.dim != A.dim:
        raise DimensionMismatch("vector dimension does not match the algebra")
    assumptions = _collect_constraints(A.mu_scalars(), u.coords)
    (S,), _, names, v, coords = _generic_elements((A,), "x", u.coords)
    x, u = v["x"], Vector._of(coords)
    # min keeps the first of equals: the left product
    return min((_certificate(assumptions, mul(S, *pair) - x, names, A.basis,
                             A.basis) for pair in ((u, x), (x, u))),
               key=lambda r: A.basis.index(r.witness.at[0]) if r.witness
               else A.dim)


# --- subalgebra closure -------------------------------------------------------


def is_subalgebra(A, gens):
    """Is the span of gens closed under the product (and under alpha, if
    present)?  A certificate on generic elements of the span: with R the
    map whose column a is the reduced row span#a of the gens (_gauss_jordan),
    x = R g_x and y = R g_y, and w is in the span iff its residual
    w - R (w at the pivot columns) is 0, which is linear in w because the
    rows are reduced.  The pivots' numerators are assumed nonzero."""
    for g in gens:
        if g.dim != A.dim:
            raise DimensionMismatch("generator dimension does not match the algebra")
    pivots = list(_gauss_jordan([g.coords for g in gens]))
    zero = Scalar.zero()
    pad = [zero] * (A.dim - len(pivots))
    R = LinMap([[row.get(k, zero) for _, _, row in pivots] + pad
                for k in range(A.dim)])
    assumptions = tuple(sorted(
        {*_collect_constraints(
            A.mu_scalars(), (c for g in gens for c in g.coords),
            A.alpha.scalars() if A.alpha is not None else ()),
         *(c for _, p, _ in pivots for c in nonzero_constraints(p.num))},
        key=name_key))
    twisted = A.alpha is not None
    (S,), g, names, v, _ = _generic_elements((A,), "xy", (), twisted, R)

    def residual(w):
        return w - apply_map(g, Vector._of([w[c] for c, *_ in pivots] + pad))

    x = apply_map(g, v["x"])
    value = residual(mul(S, x, apply_map(g, v["y"])))
    if twisted and value.is_zero():
        value = residual(apply_map(S.alpha, x))
        names = names[:1]
    return _certificate(assumptions, value, names,
                        ["span#%d" % a for a in range(A.dim)], A.basis)
