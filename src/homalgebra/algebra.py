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
nonzero; the report lists the constraints.  Every certificate is a residual
scan: a lazy sequence of vectors that must vanish, one per basis pair (or
basis vector, or spanning pair), whose first nonzero member is the witness.

mul and apply_map (and so compose, the certificates, yau_twist and identity
evaluation) compute each output coordinate with one multiply-accumulate,
scalars._sums_of_products, when the table or map has only polynomial
entries (its _poly flag, set once at construction; a Fraction such as the
1/2 of a polarized table counts as polynomial) and so have the vector's
coordinates.  A table or map with a real denominator, such as the alt4
tables, and operands the kernel declines (two layouts, or a degree past
the layout's fields) take the fold of Scalar products and sums instead,
which cancels each denominator as it goes (Henrici).
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
    Scalar,
    _coerce,
    _sums_of_products,
    name_key,
    nonzero_constraints,
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
    _poly says whether every entry has denominator 1 (see apply_map)."""

    __slots__ = ("rows", "_poly")

    def __init__(self, rows):
        self.rows = tuple(tuple(_coerce(x) for x in row) for row in rows)
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise DimensionMismatch("linear map matrix must be square")
        self._poly = _polynomial(self.scalars())

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


def _polynomial(scalars):
    """Has every one of scalars denominator 1?"""
    return all(s.den.is_one() for s in scalars)


def _support(v):
    """The (index, coordinate) pairs of v's nonzero coordinates."""
    return [(j, c) for j, c in enumerate(v.coords) if not c.is_zero()]


def apply_map(f, v):
    if f.dim != v.dim:
        raise DimensionMismatch("map dimension %d vs vector dimension %d"
                                % (f.dim, v.dim))
    support = _support(v)
    if f._poly and _polynomial(c for _, c in support):
        out = _sums_of_products([[(row[j], c) for j, c in support
                                  if not row[j].is_zero()]
                                 for row in f.rows])
        if out is not None:
            return Vector._of(out)
    out = []
    for row in f.rows:
        acc = Scalar.zero()
        for j, c in support:
            e = row[j]
            if not e.is_zero():
                acc = acc + e * c
        out.append(acc)
    return Vector(out)


def compose(f, g):
    """The map applying g first, then f."""
    if f.dim != g.dim:
        raise DimensionMismatch("composed maps must share a dimension")
    columns = [apply_map(f, Vector(column)).coords for column in zip(*g.rows)]
    return LinMap(zip(*columns))


def invert(f):
    """Exact inverse by Gauss-Jordan elimination; SingularMap if det = 0."""
    n = f.dim
    work = [list(row) for row in f.rows]
    inv = [list(row) for row in identity(n).rows]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not work[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularMap("matrix is singular (no pivot in column %d)" % col)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = work[col][col]
        for c in range(n):
            work[col][c] = work[col][c] / pivot
            inv[col][c] = inv[col][c] / pivot
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor.is_zero():
                continue
            for c in range(n):
                work[r][c] = work[r][c] - factor * work[col][c]
                inv[r][c] = inv[r][c] - factor * inv[col][c]
    return LinMap(inv)


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
        if source is None:
            continue
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
    index.  _poly says whether every structure constant has denominator 1
    (see mul).
    """

    __slots__ = ("name", "dim", "basis", "params", "mu", "alpha", "unit",
                 "_table", "_poly")

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
        self.mu = tuple(entries)
        self._poly = _polynomial(self.mu_scalars())

        self.alpha = _twist_map(alpha, dim)
        if unit is not None and not (0 <= unit < dim):
            raise ValueError("unit index out of range")
        self.unit = unit
        self._table = _table_of(self.mu)

    def _copy(self, mu, alpha):
        """This spec with the entries mu and the twist map alpha, where mu
        holds the entries of self.mu in their order, each with an equal
        scalar (such as one re-packed into another layout): the table was
        validated when self was built, so only alpha's dimension is
        checked."""
        A = AlgebraSpec.__new__(AlgebraSpec)
        A.name, A.dim, A.basis = self.name, self.dim, self.basis
        A.params, A.unit, A._poly = self.params, self.unit, self._poly
        A.mu = tuple(mu)
        A.alpha = _twist_map(alpha, self.dim)
        A._table = _table_of(A.mu)
        return A

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
        return self._copy(self.mu, alpha)

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


def _twist_map(alpha, dim):
    """alpha as the twist map of a dim-dimensional algebra: None or a map
    of dimension dim; DimensionMismatch otherwise."""
    if alpha is not None and alpha.dim != dim:
        raise DimensionMismatch("twisting map dimension %d vs algebra dimension %d"
                                % (alpha.dim, dim))
    return alpha


def _table_of(mu):
    """{(i, j): [(k, c), ...]} of the entries mu, in their order."""
    table = {}
    for i, j, k, c in mu:
        table.setdefault((i, j), []).append((k, c))
    return table


# --- operations -------------------------------------------------------------------


def mul(A, u, v):
    """Bilinear product of two vectors via the structure constants."""
    if u.dim != A.dim or v.dim != A.dim:
        raise DimensionMismatch("vector dimensions do not match the algebra")
    if A._poly:
        us, vs = _support(u), _support(v)
        if _polynomial(c for _, c in us) and _polynomial(c for _, c in vs):
            rows = {}
            table = A._table
            for i, ui in us:
                for j, vj in vs:
                    for k, c in table.get((i, j), ()):
                        rows.setdefault(k, []).append((c, ui, vj))
            coords = _sums_of_products(map(rows.get, range(A.dim)))
            if coords is not None:
                return Vector._of(coords)
    coords = [Scalar.zero()] * A.dim
    for (i, j), ks in A._table.items():
        ui = u.coords[i]
        if ui.is_zero():
            continue
        vj = v.coords[j]
        if vj.is_zero():
            continue
        uv = ui * vj
        for k, c in ks:
            coords[k] = coords[k] + c * uv
    return Vector(coords)


def is_endomorphism(A, f):
    """Does f(mu(bi, bj)) = mu(f bi, f bj) hold for all basis pairs?"""
    if f.dim != A.dim:
        raise DimensionMismatch("map dimension %d vs algebra dimension %d"
                                % (f.dim, A.dim))
    return _certify(_collect_constraints(A.mu_scalars(), f.scalars()),
                    _product_residuals(A, A, f), A.basis)


def _product_residuals(A, B, f):
    """f(mu_A(bi, bj)) - mu_B(f bi, f bj) at each basis pair, j fastest."""
    images = [apply_map(f, A.basis_vector(j)) for j in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            yield ((A.basis[i], A.basis[j]),
                   apply_map(f, A.product_on_basis(i, j))
                   - mul(B, images[i], images[j]))


def _certify(assumptions, residuals, labels):
    """Report of a certificate: fails at the first nonzero vector of the
    lazy (at, vector) residuals, with its witness; holds if none is."""
    for at, diff in residuals:
        if not diff.is_zero():
            return CheckReport("fails", _defect(at, labels, diff), assumptions)
    return CheckReport(_verdict(assumptions), None, assumptions)


def _first_nonzero(vec):
    for k, c in enumerate(vec.coords):
        if not c.is_zero():
            return k
    raise ValueError("vector is zero")


def _defect(at, labels, diff, specialization=None):
    """Witness for a nonzero vector, reported at its first nonzero
    coordinate."""
    k = _first_nonzero(diff)
    return Witness(at=at, coordinate=labels[k], residual=diff.coords[k],
                   residual_vector=diff, specialization=specialization)


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
    """Structure constants (i, j, k, c) of the product f o mu."""
    entries = []
    for i, j in A._table:
        image = apply_map(f, A.product_on_basis(i, j))
        for k, c in enumerate(image.coords):
            if not c.is_zero():
                entries.append((i, j, k, c))
    return entries


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
    """f o mu_A = mu_B o (f x f) on basis pairs, and f o alpha_A = alpha_B o f
    when both twist maps are present."""
    if A.dim != B.dim or f.dim != A.dim:
        raise DimensionMismatch("morphism check needs equal dimensions")
    report = _certify(
        _collect_constraints(A.mu_scalars(), B.mu_scalars(), f.scalars()),
        _product_residuals(A, B, f), B.basis)
    if not report.holds or A.alpha is None or B.alpha is None:
        return report
    basis = [A.basis_vector(j) for j in range(A.dim)]
    return _certify(
        _collect_constraints(A.mu_scalars(), B.mu_scalars(), f.scalars(),
                             A.alpha.scalars(), B.alpha.scalars()),
        (((A.basis[j],), apply_map(f, apply_map(A.alpha, bj))
          - apply_map(B.alpha, apply_map(f, bj))) for j, bj in enumerate(basis)),
        B.basis)


def check_unit(A, u):
    """Is u a two-sided unit: mul(u, bj) = bj = mul(bj, u) for all j?"""
    if u.dim != A.dim:
        raise DimensionMismatch("vector dimension does not match the algebra")
    basis = [A.basis_vector(j) for j in range(A.dim)]
    return _certify(
        _collect_constraints(A.mu_scalars(), u.coords),
        (((A.basis[j],), mul(A, *pair) - bj)
         for j, bj in enumerate(basis) for pair in ((u, bj), (bj, u))),
        A.basis)


# --- subalgebra closure -------------------------------------------------------


class _Echelon:
    """Row echelon basis over Scalars, fraction-free, first-nonzero pivoting."""

    def __init__(self):
        self.rows = []          # list of (pivot_col, Vector)
        self.pivot_constraints = []

    def reduce(self, v):
        """Residue of v modulo the span; fraction-free cross-multiplication."""
        for pivot_col, row in self.rows:
            c = v.coords[pivot_col]
            if c.is_zero():
                continue
            p = row.coords[pivot_col]
            v = v.scale(p) - row.scale(c)
        return v

    def insert(self, v):
        """Reduce v and add it to the basis if independent."""
        v = self.reduce(v)
        if v.is_zero():
            return
        pivot_col = _first_nonzero(v)
        pivot = v.coords[pivot_col]
        for c in nonzero_constraints(pivot.num):
            if c not in self.pivot_constraints:
                self.pivot_constraints.append(c)
        self.rows.append((pivot_col, v))
        self.rows.sort(key=lambda pr: pr[0])


def is_subalgebra(A, gens):
    """Span of gens closed under the product (and under alpha, if present)?"""
    ech = _Echelon()
    for g in gens:
        if g.dim != A.dim:
            raise DimensionMismatch("generator dimension does not match the algebra")
        ech.insert(g)
    span = [("span#%d" % a, row) for a, (_, row) in enumerate(ech.rows)]
    assumptions = _collect_constraints(
        A.mu_scalars(),
        (c for g in gens for c in g.coords),
        A.alpha.scalars() if A.alpha is not None else None,
    )
    assumptions = tuple(sorted(set(assumptions) | set(ech.pivot_constraints),
                               key=name_key))
    images = chain(
        (((a, b), mul(A, u, v)) for a, u in span for b, v in span),
        (((a,), apply_map(A.alpha, u))
         for a, u in (span if A.alpha is not None else ())))
    return _certify(assumptions,
                    ((at, ech.reduce(w)) for at, w in images), A.basis)
