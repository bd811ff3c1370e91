"""Algebra-core operations: products, linear maps, certificates, twist,
untwist, opposite, polarization, subalgebras, units."""

import random
from fractions import Fraction

import pytest

from homalgebra import algebra as algebra_module
from homalgebra import catalog, fileio, scalars
from homalgebra.algebra import (
    AlgebraSpec,
    LinMap,
    Param,
    Vector,
    apply_map,
    check_unit,
    compose,
    identity,
    invert,
    is_endomorphism,
    is_morphism,
    is_subalgebra,
    mul,
    opposite,
    polarize,
    untwist,
    yau_twist,
)
from homalgebra.errors import (
    DimensionMismatch,
    MissingTwistMap,
    NotEndomorphism,
    SingularMap,
)
from homalgebra.scalars import Scalar, name_key


def S(name):
    return Scalar.var(name)


@pytest.fixture(scope="module")
def octonions():
    return catalog.get("octonions")


@pytest.fixture(scope="module")
def mu1():
    return catalog.get("alt4_mu1")


@pytest.fixture(scope="module")
def mu2():
    return catalog.get("alt4_mu2")


@pytest.fixture(scope="module")
def h3():
    return catalog.get("hom_assoc_3d")


class TestMul:
    def test_octonion_products(self, octonions):
        A = octonions.algebra
        e1, e2 = A.basis_vector("e1"), A.basis_vector("e2")
        assert mul(A, e1, e2) == A.basis_vector("e4")
        assert mul(A, e2, e1) == -A.basis_vector("e4")

    def test_bilinearity_zero(self, octonions):
        A = octonions.algebra
        z = Vector.zero(A.dim)
        v = A.basis_vector("e5")
        assert mul(A, z, v).is_zero()
        assert mul(A, v, z).is_zero()

    def test_bilinearity_in_both_slots(self, octonions):
        A = octonions.algebra
        lam = S("a")
        u, v, w = (A.basis_vector(k) for k in ("e1", "e2", "e3"))
        lhs = mul(A, u.scale(lam) + v, w)
        rhs = mul(A, u, w).scale(lam) + mul(A, v, w)
        assert lhs == rhs

    def test_dimension_mismatch(self, octonions):
        with pytest.raises(DimensionMismatch):
            mul(octonions.algebra, Vector.zero(3), Vector.zero(3))


class TestLinMaps:
    def test_alpha_on_basis_vector(self, h3):
        A = h3.algebra
        image = apply_map(A.alpha, A.basis_vector("e3"))
        assert image == A.basis_vector("e3").scale(S("b"))

    def test_diagonal_inverse(self):
        f = LinMap.diagonal([S("a"), S("a"), S("b")])
        inv = invert(f)
        one = Scalar.one()
        assert inv == LinMap.diagonal([one / S("a"), one / S("a"), one / S("b")])
        assert compose(f, inv) == identity(3)

    def test_compose_squares_diagonal(self, h3):
        A = h3.algebra
        alpha2 = compose(A.alpha, A.alpha)
        assert apply_map(alpha2, A.basis_vector("e2")) == \
            A.basis_vector("e2").scale(S("a") ** 2)

    def test_singular_map(self, mu1):
        with pytest.raises(SingularMap):
            invert(mu1.maps["alpha1"])   # alpha1 kills e1

    def test_invert_roundtrip_dense(self):
        rows = [["1", "a", "0"], ["0", "1", "b"], ["1", "0", "1"]]
        f = LinMap([[Scalar.var(x) if x in ("a", "b") else
                     Scalar.from_fraction(int(x)) for x in row] for row in rows])
        assert compose(f, invert(f)) == identity(3)
        assert compose(invert(f), f) == identity(3)

    def test_apply_map_matches_dense_reference(self):
        # apply_map visits only the nonzero coordinates of the vector; the
        # reference adds every product e_ij * v_j in turn, zeros included
        rng = random.Random(20261019)
        pool = [Scalar.zero()] * 6 + [
            S("a"), S("b"), S("a") / S("b"), S("a") - Scalar.one(),
            Scalar.from_fraction(Fraction(-3, 2)), Scalar.from_fraction(5)]
        for _ in range(60):
            n = rng.randint(1, 7)
            f = LinMap([[rng.choice(pool) for _ in range(n)]
                        for _ in range(n)])
            v = Vector([rng.choice(pool) for _ in range(n)])
            got = apply_map(f, v)
            for i in range(n):
                want = Scalar.zero()
                for j in range(n):
                    want = want + f.rows[i][j] * v.coords[j]
                assert got.coords[i] == want
                assert str(got.coords[i]) == str(want)


class TestEndomorphism:
    def test_alpha1_certificate(self, mu1):
        r = is_endomorphism(mu1.algebra, mu1.maps["alpha1"])
        assert r.verdict == "holds-under-assumptions"
        assert r.assumptions == ("a2 != 0",)

    def test_oct_diag_fails_on_square(self, octonions):
        # alpha(e1*e1) = -u but alpha(e1)*alpha(e1) = -a^2 u
        r = is_endomorphism(octonions.algebra, octonions.maps["oct_diag"])
        assert r.verdict == "fails"
        assert r.witness.at == ("e1", "e1")
        assert r.witness.residual == S("a") ** 2 - Scalar.one()

    def test_doubling_the_unit_fails_at_uu(self, octonions):
        A = octonions.algebra
        rows = [[Scalar.from_fraction(2 if i == j == 0 else (1 if i == j else 0))
                 for j in range(8)] for i in range(8)]
        f = LinMap(rows)
        r = is_endomorphism(A, f)
        assert r.verdict == "fails"
        assert r.witness.at == ("u", "u")
        # 2u*2u = 4u vs f(u*u) = 2u
        assert r.witness.residual == Scalar.from_fraction(-2)

    def test_identity_map_is_endo(self, octonions):
        assert is_endomorphism(octonions.algebra, identity(8)).verdict == "holds"


class TestYauTwist:
    def test_twisted_octonion_product(self, octonions):
        T = yau_twist(octonions.algebra, octonions.maps["oct_diag"], force=True)
        got = mul(T, T.basis_vector("e1"), T.basis_vector("e2"))
        assert got == T.basis_vector("e4").scale(S("a") * S("b"))

    def test_twisted_4dim_product(self, mu1):
        T = yau_twist(mu1.algebra, mu1.maps["alpha1"])
        got = mul(T, T.basis_vector("e2"), T.basis_vector("e0"))
        expected = T.basis_vector("e2").scale(S("a4")) + \
            T.basis_vector("e3").scale(S("a4") * S("a3") / S("a2"))
        assert got == expected

    def test_identity_twist_is_same_table(self, mu1):
        T = yau_twist(mu1.algebra, identity(4))
        assert T.same_table(mu1.algebra)
        assert T.alpha == identity(4)

    def test_refuses_non_endomorphism(self, octonions):
        with pytest.raises(NotEndomorphism):
            yau_twist(octonions.algebra, octonions.maps["oct_diag"])

    def test_twist_records_alpha(self, mu1):
        T = yau_twist(mu1.algebra, mu1.maps["alpha1"])
        assert T.alpha == mu1.maps["alpha1"]
        assert T.name == "alt4_mu1_twist"


class TestUntwist:
    def test_roundtrip_octonions(self, octonions):
        T = yau_twist(octonions.algebra, octonions.maps["oct_diag"], force=True)
        back = untwist(T)
        assert back.same_table(octonions.algebra)
        assert back.alpha is None

    def test_untwisted_h3_product(self, h3):
        # alpha^{-1}(a e1) = (a/a) e1 = e1
        back = untwist(h3.algebra)
        got = mul(back, back.basis_vector("e1"), back.basis_vector("e1"))
        assert got == back.basis_vector("e1")

    def test_missing_twist_map(self, mu1):
        with pytest.raises(MissingTwistMap):
            untwist(mu1.algebra)


class TestOpposite:
    def test_swaps_arguments(self, mu1):
        op = opposite(mu1.algebra)
        got = mul(op, op.basis_vector("e0"), op.basis_vector("e2"))
        assert got == op.basis_vector("e2")   # mu1(e2, e0) = e2 flipped

    def test_involution(self, mu1):
        assert opposite(opposite(mu1.algebra)).same_table(mu1.algebra)

    def test_commutative_fixed_point(self):
        hj = catalog.get("hom_jordan_3d").algebra
        assert opposite(hj).same_table(hj)


class TestPolarize:
    def test_half_coefficient(self, h3):
        pol = polarize(h3.algebra)
        got = mul(pol, pol.basis_vector("e2"), pol.basis_vector("e3"))
        assert got == pol.basis_vector("e3").scale(
            Scalar.from_fraction(Fraction(1, 2)) * S("b"))

    def test_commutative_input_unchanged(self):
        hj = catalog.get("hom_jordan_3d").algebra
        assert polarize(hj).same_table(hj)

    def test_octonions_antisymmetric_pair_cancels(self, octonions):
        pol = polarize(octonions.algebra)
        got = mul(pol, pol.basis_vector("e1"), pol.basis_vector("e2"))
        assert got.is_zero()   # (e4 + (-e4)) / 2

    def test_output_is_commutative(self, octonions):
        pol = polarize(octonions.algebra)
        for i in range(pol.dim):
            for j in range(pol.dim):
                assert pol.product_on_basis(i, j) == pol.product_on_basis(j, i)

    def test_alpha_carried_over(self, h3):
        assert polarize(h3.algebra).alpha == h3.algebra.alpha


class TestMorphism:
    def test_identity_map(self, mu1):
        r = is_morphism(mu1.algebra, mu1.algebra, identity(4))
        assert r.holds

    def test_anti_isomorphism_phi(self, mu1, mu2):
        # independent oracle: brute force over all 16 basis pairs using raw
        # table lookups of both algebras
        A = opposite(mu1.algebra)
        B = mu2.algebra
        phi = LinMap.diagonal([Scalar.one(), -Scalar.one(),
                               Scalar.one(), Scalar.one()])
        for i in range(4):
            for j in range(4):
                lhs = apply_map(phi, A.product_on_basis(i, j))
                rhs = mul(B, apply_map(phi, A.basis_vector(i)),
                          apply_map(phi, A.basis_vector(j)))
                assert lhs == rhs, (i, j)
        assert is_morphism(A, B, phi).holds

    def test_killing_e0_breaks_it(self, mu1):
        A = mu1.algebra
        rows = [[Scalar.from_fraction(1 if (i == j and i != 0) else 0)
                 for j in range(4)] for i in range(4)]
        f = LinMap(rows)
        r = is_morphism(A, A, f)
        assert r.verdict == "fails"
        # (e0, e0) survives: f(e0)=0 on both sides; (e0, e1) is the first defect
        assert r.witness.at == ("e0", "e1")

    def test_alpha_compatibility_clause(self, mu1):
        # phi commutes with alpha1 only after setting a1 = 0
        A = yau_twist(opposite(mu1.algebra), mu1.maps["alpha1"])
        B = yau_twist(catalog.get("alt4_mu2").algebra, mu1.maps["alpha1"])
        phi = LinMap.diagonal([Scalar.one(), -Scalar.one(),
                               Scalar.one(), Scalar.one()])
        assert is_morphism(A, B, phi).verdict == "fails"
        f0 = mu1.maps["alpha1"].substitute({"a1": Fraction(0)})
        A0 = yau_twist(opposite(mu1.algebra), f0)
        B0 = yau_twist(catalog.get("alt4_mu2").algebra, f0)
        assert is_morphism(A0, B0, phi).holds


class TestSubalgebra:
    def test_u_e1_closes(self, octonions):
        A = octonions.algebra
        r = is_subalgebra(A, [A.basis_vector("u"), A.basis_vector("e1")])
        assert r.holds

    def test_e1_e2_does_not_close(self, octonions):
        A = octonions.algebra
        r = is_subalgebra(A, [A.basis_vector("e1"), A.basis_vector("e2")])
        assert r.verdict == "fails"
        assert r.witness.residual_vector is not None

    def test_whole_space(self, octonions):
        A = octonions.algebra
        r = is_subalgebra(A, [A.basis_vector(i) for i in range(A.dim)])
        assert r.holds

    def test_alpha_closure_checked(self, h3):
        A = h3.algebra
        # e3 spans an alpha-stable null line
        r = is_subalgebra(A, [A.basis_vector("e3")])
        assert r.holds

    def test_span_with_redundant_generators(self, octonions):
        A = octonions.algebra
        u, e1 = A.basis_vector("u"), A.basis_vector("e1")
        r = is_subalgebra(A, [u, e1, u + e1])
        assert r.holds


class TestUnit:
    def test_octonion_unit(self, octonions):
        A = octonions.algebra
        assert A.unit == 0
        assert check_unit(A, A.basis_vector("u")).holds

    def test_twisted_unit_fails(self):
        A = catalog.get("octonions_twist_diag").algebra
        r = check_unit(A, A.basis_vector("u"))
        assert r.verdict == "fails"
        assert r.witness.at == ("e1",)
        assert r.witness.residual == S("a") - Scalar.one()

    def test_h3_e1_not_a_unit(self, h3):
        A = h3.algebra
        r = check_unit(A, A.basis_vector("e1"))
        assert r.verdict == "fails"
        assert r.witness.residual == S("a") - Scalar.one()

    def test_a_parametric_candidate_shares_the_layout(self, h3, repacks):
        # u is re-packed with the table and the generic element, so no
        # product of the certificate meets two layouts
        A = h3.algebra
        u = Vector([S("a"), 0, 0])
        r = check_unit(A, u)
        assert repacks == []
        assert _fields(r) == reference_unit(A, u)
        assert r.witness.residual == S("a") ** 2 - 1


class TestAlgebraSpecValidation:
    # a zero constant is checked before it is dropped, in either order
    @pytest.mark.parametrize("values", [(1, 2), (0, 1), (1, 0), (0, 0)])
    def test_duplicate_entry_rejected(self, values):
        with pytest.raises(ValueError, match="duplicate structure constant"):
            AlgebraSpec("bad", 2, ["x", "y"],
                        mu=[(0, 0, 0, values[0]), (0, 0, 0, values[1])])

    def test_undeclared_parameter_rejected(self):
        with pytest.raises(ValueError):
            AlgebraSpec("bad", 2, ["x", "y"], mu=[(0, 0, 0, S("q"))])

    @pytest.mark.parametrize("value", [1, 0])
    def test_index_out_of_range(self, value):
        with pytest.raises(ValueError, match="index out of range"):
            AlgebraSpec("bad", 2, ["x", "y"], mu=[(0, 0, 5, value)])

    def test_zero_entries_dropped(self):
        A = AlgebraSpec("ok", 2, ["x", "y"], mu=[(0, 0, 0, 0)])
        assert A.mu == ()

    @pytest.mark.parametrize("key", catalog.list_keys())
    def test_with_alpha_copies_the_validated_table(self, key):
        # with_alpha skips the validation the table has passed: its copy
        # equals a table built afresh, with every map of the entry and none
        entry = catalog.get(key)
        A = entry.algebra
        for alpha in (None, *_maps(entry).values()):
            copy = A.with_alpha(alpha)
            fresh = AlgebraSpec(A.name, A.dim, A.basis, A.params, A.mu,
                                alpha, A.unit)
            assert copy == fresh
            for field in ("mu", "_table", "alpha", "params"):
                assert getattr(copy, field) == getattr(fresh, field), field
        assert A.with_identity_alpha().alpha == identity(A.dim)

    def test_with_alpha_checks_the_dimension(self, h3):
        with pytest.raises(DimensionMismatch, match="twisting map dimension"):
            h3.algebra.with_alpha(identity(h3.algebra.dim + 1))


# --- an independent reference for the certificates --------------------------
#
# Plain loops in the order the certificates promise: basis pairs (i, j) with
# j moving fastest, the twist clause of a morphism only after every product
# agrees, and for a unit the left product of each b_j before its right one.
# A failure is reported at the first nonzero coordinate of its difference.


def _ref_constraints(*sources):
    return tuple(sorted({c for source in sources for s in source
                         for c in s.nonzero_constraints()}, key=name_key))


def _ref_holds(assumptions):
    verdict = "holds-under-assumptions" if assumptions else "holds"
    return (verdict, None, None, None, None, assumptions)


def _ref_fails(assumptions, at, labels, diff):
    k = next(k for k, c in enumerate(diff.coords) if not c.is_zero())
    return ("fails", at, labels[k], diff.coords[k], diff, assumptions)


def _column(f, j):
    return Vector([f.entry(r, j) for r in range(f.dim)])


def _ref_products(A, B, f, assumptions):
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = apply_map(f, A.product_on_basis(i, j))
            rhs = mul(B, _column(f, i), _column(f, j))
            if lhs != rhs:
                return _ref_fails(assumptions, (A.basis[i], A.basis[j]),
                                  B.basis, lhs - rhs)
    return None


def reference_endomorphism(A, f):
    assumptions = _ref_constraints(A.mu_scalars(), f.scalars())
    return _ref_products(A, A, f, assumptions) or _ref_holds(assumptions)


def reference_morphism(A, B, f):
    assumptions = _ref_constraints(A.mu_scalars(), B.mu_scalars(), f.scalars())
    failed = _ref_products(A, B, f, assumptions)
    if failed or A.alpha is None or B.alpha is None:
        return failed or _ref_holds(assumptions)
    assumptions = _ref_constraints(A.mu_scalars(), B.mu_scalars(), f.scalars(),
                                   A.alpha.scalars(), B.alpha.scalars())
    for j in range(A.dim):
        lhs = apply_map(f, _column(A.alpha, j))
        rhs = apply_map(B.alpha, _column(f, j))
        if lhs != rhs:
            return _ref_fails(assumptions, (A.basis[j],), B.basis, lhs - rhs)
    return _ref_holds(assumptions)


def reference_unit(A, u):
    assumptions = _ref_constraints(A.mu_scalars(), u.coords)
    for j in range(A.dim):
        bj = A.basis_vector(j)
        for product in (mul(A, u, bj), mul(A, bj, u)):
            if product != bj:
                return _ref_fails(assumptions, (A.basis[j],), A.basis,
                                  product - bj)
    return _ref_holds(assumptions)


def _fields(report):
    w = report.witness
    if w is None:
        return (report.verdict, None, None, None, None, report.assumptions)
    return (report.verdict, w.at, w.coordinate, w.residual,
            w.residual_vector, report.assumptions)


def _maps(*entries):
    """Every map attached to the entries, by name, and the identity."""
    maps = {"identity": identity(entries[0].algebra.dim)}
    for entry in entries:
        maps.update(entry.maps)
    return maps


def _group_algebra(dim, rng, t, label):
    """Q[Z_dim] in the basis of the columns of a dense unimodular P, the
    product of unit triangular factors with off-diagonal entries -t, 0 or t;
    with the unit in that basis, the automorphism g -> -g transported to it
    and a random dense map with entries -2t..2t."""
    def entry():
        return t * rng.randint(-1, 1)
    lower = [[1 if i == j else entry() if i > j else 0 for j in range(dim)]
             for i in range(dim)]
    upper = [[1 if i == j else entry() if i < j else 0 for j in range(dim)]
             for i in range(dim)]
    P = compose(LinMap(lower), LinMap(upper))
    Q = invert(P)
    mu = []
    for i in range(dim):
        for j in range(dim):
            product = [Scalar.zero()] * dim
            for a in range(dim):
                for b in range(dim):
                    product[(a + b) % dim] += P.entry(a, i) * P.entry(b, j)
            mu += [(i, j, k, c) for k, c in enumerate(_fold_apply(Q, product))
                   if not c.is_zero()]
    params = [Param(n) for n in sorted(t.variables())]
    A = AlgebraSpec("z%d" % dim, dim, ["%s%d" % (label, i)
                                       for i in range(dim)], params, mu)
    inverse = LinMap([[int((i + j) % dim == 0) for j in range(dim)]
                      for i in range(dim)])
    unit = Vector([Q.entry(k, 0) for k in range(dim)])
    dense = LinMap([[t * rng.randint(-2, 2) for _ in range(dim)]
                    for _ in range(dim)])
    return A, P, Q, unit, compose(Q, compose(inverse, P)), dense


# Catalog maps are mostly diagonal; these tables and maps are dense.  Each
# case is two copies of Q[Z_dim] under different changes of basis, over Q
# or, for dims 2-4, polynomial in a parameter: a certificate holds for the
# transported automorphism and the isomorphism between the copies, and
# fails for a random map
_DENSE = [(dim, param) for dim in range(2, 7) for param in (None, "a")
          if param is None or dim <= 4]


def _dense_cases(dim, param):
    rng = random.Random(1800 + dim)
    t = S(param) if param else Scalar.one()
    A, P, _, u, auto_a, dense_a = _group_algebra(dim, rng, t, "e")
    # other labels, so that a witness must take its coordinate from B
    B, _, Q, v, auto_b, dense_b = _group_algebra(dim, rng, t, "f")
    iso = compose(Q, P)
    endos = [(A, auto_a), (A, dense_a), (B, auto_b), (B, dense_b),
             (A, identity(dim))]
    morphisms = [(A, B, iso), (A, B, dense_a), (B, A, invert(iso)),
                 (A.with_alpha(auto_a), B.with_alpha(auto_b), iso),
                 (A.with_alpha(auto_a), B.with_alpha(dense_b), iso),
                 (A.with_alpha(auto_a), A.with_alpha(dense_a), identity(dim))]
    units = [(A, u), (B, v), (A, v)] + [
        (A, A.basis_vector(j)) for j in range(dim)]
    return endos, morphisms, units


class TestCertificatesAgainstReference:
    @pytest.mark.parametrize("dim, param", _DENSE)
    def test_dense(self, dim, param):
        endos, morphisms, units = _dense_cases(dim, param)
        verdicts = []
        for n, (A, f) in enumerate(endos):
            report = is_endomorphism(A, f)
            assert _fields(report) == reference_endomorphism(A, f), n
            verdicts.append(report.verdict)
        for n, (A, B, f) in enumerate(morphisms):
            report = is_morphism(A, B, f)
            assert _fields(report) == reference_morphism(A, B, f), n
            verdicts.append(report.verdict)
        for n, (A, u) in enumerate(units):
            report = check_unit(A, u)
            assert _fields(report) == reference_unit(A, u), n
            verdicts.append(report.verdict)
        # the automorphisms, isomorphisms and units hold, the random maps
        # fail, the first in the product clause, the last in the twist one
        assert verdicts[:5] == ["holds", "fails", "holds", "fails", "holds"]
        assert verdicts[5:11] == ["holds", "fails", "holds", "holds",
                                  "fails", "fails"]
        assert verdicts[11:13] == ["holds", "holds"]
        assert "fails" in verdicts[13:]

    def test_generic_names_avoid_every_variable(self):
        # x_1 and y_1 name the generic coordinates unless taken: here they
        # are undeclared variables of the map, the twist map and the unit
        A = AlgebraSpec("idempotent", 1, ["e"], mu=[(0, 0, 0, 1)])
        x1, y1 = LinMap([[S("x_1")]]), LinMap([[S("y_1")]])
        cases = [
            (is_endomorphism, reference_endomorphism, (A, x1)),
            (is_endomorphism, reference_endomorphism, (A, y1)),
            (is_morphism, reference_morphism,
             (A.with_alpha(x1), A.with_alpha(y1), identity(1))),
            (check_unit, reference_unit, (A, Vector([S("x_1")])))]
        for certificate, reference, args in cases:
            report = certificate(*args)
            assert report.verdict == "fails"
            assert _fields(report) == reference(*args)

    @pytest.mark.parametrize("key", catalog.list_keys())
    def test_endomorphism(self, key):
        entry = catalog.get(key)
        for name, f in _maps(entry).items():
            assert (_fields(is_endomorphism(entry.algebra, f))
                    == reference_endomorphism(entry.algebra, f)), name

    @pytest.mark.parametrize("key", catalog.list_keys())
    def test_unit(self, key):
        A = catalog.get(key).algebra
        for label in A.basis:
            u = A.basis_vector(label)
            assert _fields(check_unit(A, u)) == reference_unit(A, u), label

    @pytest.mark.parametrize("key", catalog.list_keys())
    def test_morphism(self, key):
        entry = catalog.get(key)
        A = entry.algebra
        cases = [(A, other.algebra, f)
                 for other in map(catalog.get, catalog.list_keys())
                 if other.algebra.dim == A.dim
                 for f in _maps(entry, other).values()]
        # the product of A with each of its maps as the twist map: where the
        # products agree, only the twist clause can fail, and a denominator
        # of the twist maps widens the assumptions
        twisted = [A.with_alpha(m) for m in _maps(entry).values()]
        cases += [(S, T, f) for S in twisted for T in twisted
                  for f in _maps(entry).values()]
        for n, (S, T, f) in enumerate(cases):
            assert _fields(is_morphism(S, T, f)) == reference_morphism(S, T, f), n


@pytest.mark.parametrize("key", catalog.list_keys())
def test_certificates_never_decline_the_kernel(key, kernel, repacks):
    # the certificates re-pack the tables and the map into the layout of
    # their generic elements, so no product meets two layouts
    entry = catalog.get(key)
    A = entry.algebra
    for f in _maps(entry).values():
        is_endomorphism(A, f)
        for other in map(catalog.get, catalog.list_keys()):
            if other.algebra.dim == A.dim:
                is_morphism(A, other.algebra, f)
    assert kernel and repacks == []


@pytest.mark.parametrize("key", catalog.list_keys())
def test_a_built_or_loaded_table_is_in_one_layout(key, repacks):
    # each constant of a catalog table or a loaded file is built in a
    # layout of its own names; a spec puts its table and twist map in one,
    # and a map its entries, so products of basis vectors, their images
    # under the twist map and the powers of a map never re-pack
    entry = catalog.get(key)
    loaded = fileio.loads(fileio.saves(entry.algebra, entry.maps))
    for A, maps in ((entry.algebra, entry.maps), (loaded.algebra,
                                                  loaded.maps)):
        E = [A.basis_vector(i) for i in range(A.dim)]
        for x in E:
            for y in E:
                xy = mul(A, x, y)
                for z in E:
                    mul(A, xy, z)
                if A.alpha is not None:
                    apply_map(A.alpha, apply_map(A.alpha, xy))
        for f in maps.values():
            compose(f, compose(f, f))
    assert repacks == []
    # a file's scalars are parsed in one layout, its maps' too
    assert len(_layouts(loaded.algebra.mu_scalars(),
                        *(f.scalars() for f in loaded.maps.values()))) <= 1


# --- the multiply-accumulate kernel against a Scalar fold ----------------------
#
# mul and apply_map sum each output coordinate in scalars._sums_of_products,
# whatever their denominators and layouts.  The references below are plain
# Scalar + and * folds over each coordinate, every product in turn, zeros
# included.


def _fold_mul(A, u, v):
    coords = [Scalar.zero()] * A.dim
    for i, j, k, c in A.mu:
        coords[k] = coords[k] + c * u[i] * v[j]
    return coords


def _fold_apply(f, v):
    return [sum((f.entry(i, j) * v[j] for j in range(f.dim)), Scalar.zero())
            for i in range(f.dim)]


def _fold_compose(f, g):
    return [[sum((f.entry(i, m) * g.entry(m, j) for m in range(f.dim)),
                 Scalar.zero()) for j in range(f.dim)] for i in range(f.dim)]


def _layouts(*sources):
    """The layouts of the polynomials of the Scalars in sources that are
    not constants."""
    return {p.ring for source in sources for c in source
            for p in (c.num, c.den) if not p.is_constant()}


def _assert_same(got, want):
    assert list(got) == want
    assert [hash(c) for c in got] == [hash(c) for c in want]
    assert [str(c) for c in got] == [str(c) for c in want]


@pytest.fixture
def kernel(monkeypatch):
    """What each call of the kernel returned."""
    calls = []

    def spy(rows):
        out = scalars._sums_of_products(rows)
        calls.append(out)
        return out

    monkeypatch.setattr(algebra_module, "_sums_of_products", spy)
    return calls


@pytest.fixture
def repacks(monkeypatch):
    """The rows of each re-pack the kernel made."""
    calls = []
    repacked = scalars._repacked

    def spy(rows):
        calls.append(rows)
        return repacked(rows)

    monkeypatch.setattr(scalars, "_repacked", spy)
    return calls


def _draw(rng, gens, coeffs, terms=3, rational=()):
    """A random Scalar of up to `terms` terms over gens, a term now and
    then times one of rational."""
    out = Scalar.zero()
    for _ in range(rng.randint(0, terms)):
        t = Scalar.from_fraction(rng.choice(coeffs))
        for g in rng.sample(gens, rng.randint(0, min(2, len(gens)))):
            t = t * g ** rng.randint(1, 2)
        if rational and rng.random() < 0.3:
            t = t * rng.choice(rational)
        out = out + t
    return out


def _random_case(rng, gens, coeffs, dim, rational=()):
    """A sparse table, a map and two vectors with entries drawn over gens
    (see _draw)."""
    def draw():
        return _draw(rng, gens, coeffs, rational=rational) \
            if rng.random() < 0.7 else Scalar.zero()
    mu = [(i, j, k, draw()) for i in range(dim) for j in range(dim)
          for k in range(dim) if rng.random() < 0.5]
    params = [Param(n) for n in sorted(set().union(
        *(g.variables() for g in gens)))]
    A = AlgebraSpec("draw", dim, ["e%d" % i for i in range(dim)], params, mu)
    f = LinMap([[draw() for _ in range(dim)] for _ in range(dim)])
    g = LinMap([[draw() for _ in range(dim)] for _ in range(dim)])
    u = Vector([draw() for _ in range(dim)])
    v = Vector([draw() for _ in range(dim)])
    return A, f, g, u, v


def _assert_all_match(A, f, g, u, v):
    _assert_same(mul(A, u, v).coords, _fold_mul(A, u, v))
    _assert_same(mul(A, v, v).coords, _fold_mul(A, v, v))
    _assert_same(apply_map(f, u).coords, _fold_apply(f, u))
    h = compose(f, g)
    for row, want in zip(h.rows, _fold_compose(f, g)):
        _assert_same(row, want)


INTS = (-3, -2, -1, 1, 2, 3)
FRACTIONS = INTS + (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                    Fraction(2, 3), Fraction(-1, 3))


class TestMultiplyAccumulate:
    @pytest.mark.parametrize("coeffs", [INTS, FRACTIONS],
                             ids=["int", "fraction"])
    @pytest.mark.parametrize("seed", range(12))
    def test_one_layout_matches_the_fold(self, kernel, repacks, seed, coeffs):
        rng = random.Random(1600 + seed)
        gens = Scalar.gens(["a", "b", "x1", "x2", "x3"])
        A, f, g, u, v = _random_case(rng, gens, coeffs, rng.randint(1, 4))
        assert all(c.den.is_one() for c in A.mu_scalars())
        _assert_all_match(A, f, g, u, v)
        assert kernel and None not in kernel
        assert repacks == []

    def test_fractions_cancel_to_an_integer_or_to_zero(self, kernel,
                                                      repacks):
        x0, x1 = Scalar.gens(["x0", "x1"])
        x = Vector([x0, x1])
        half = Fraction(1, 2)
        # the polarized table of mu(e0, e1) = e0: 1/2 x0 x1 + 1/2 x1 x0
        P = polarize(AlgebraSpec("t", 2, ["e0", "e1"], mu=[(0, 1, 0, 1)]))
        got = mul(P, x, x)
        _assert_same(got.coords, _fold_mul(P, x, x))
        assert got[0] == x0 * x1
        assert [type(c) for c in got[0].num.monomials().values()] == [int]
        # 1/2 x0 x1 - 1/2 x1 x0
        Z = AlgebraSpec("t", 2, ["e0", "e1"],
                        mu=[(0, 1, 0, half), (1, 0, 0, -half)])
        got = mul(Z, x, x)
        _assert_same(got.coords, _fold_mul(Z, x, x))
        assert got.is_zero()
        # 3/2 + 1/2 is the int 2, and 2/3 + 2/3 stays a Fraction
        f = LinMap([[Fraction(3, 2), half], [Fraction(2, 3), Fraction(2, 3)]])
        got = apply_map(f, Vector([x0, x0]))
        _assert_same(got.coords, _fold_apply(f, Vector([x0, x0])))
        assert [type(c) for c in got[0].num.monomials().values()] == [int]
        assert [type(c) for c in got[1].num.monomials().values()] == \
            [Fraction]
        assert kernel and repacks == []

    def test_two_layouts_are_repacked(self, kernel, repacks):
        rng = random.Random(1620)
        xs = Scalar.gens(["x1", "x2", "x3"])
        ys = Scalar.gens(["y1", "y2", "y3"])   # a layout of their own
        assert xs[0].num.ring is not ys[0].num.ring
        A, f, g, u, _ = _random_case(rng, xs, INTS, 3)
        v = Vector(ys)
        _assert_same(mul(A, u, v).coords, _fold_mul(A, u, v))
        _assert_same(apply_map(f, v).coords, _fold_apply(f, v))
        assert kernel and None not in kernel
        assert len(repacks) == 2
        # one layout for all of a call's rows, which holds both
        got = scalars._sums_of_products([[(xs[0], ys[0])], [(ys[1], xs[1])]])
        assert got == [xs[0] * ys[0], ys[1] * xs[1]]
        assert got[0].num.ring is got[1].num.ring
        assert got[0].num.ring.nameset == {"x1", "x2", "y1", "y2"}
        # a constant is the key 0 of every layout
        got = scalars._sums_of_products(
            [[(Scalar.from_fraction(2), ys[0]), (xs[1], Scalar.one())]])
        assert got == [ys[0] * 2 + xs[1]]
        assert len(repacks) == 4
        one = scalars._sums_of_products([[(Scalar.from_fraction(2), ys[0])]])
        assert one == [ys[0] * 2] and len(repacks) == 4

    def test_a_tuple_with_a_denominator_takes_no_layout(self, repacks):
        # a tuple with a real denominator is a Scalar product, which works
        # across layouts: none of its factors sets the row's layout, and a
        # re-pack of the row leaves them as they are
        xs = Scalar.gens(["x1", "x2"])
        ys = Scalar.gens(["y1", "y2"])   # a layout of their own
        r = 1 / (ys[1] + 1)
        got = scalars._sums_of_products([[(ys[0], r), (xs[0], xs[1])]])
        assert got == [ys[0] * r + xs[0] * xs[1]] and repacks == []
        rows = [[(ys[0], r), (xs[0], ys[1])]]
        got = scalars._sums_of_products(rows)
        assert got == [ys[0] * r + xs[0] * ys[1]]
        (repacked,) = scalars._repacked(rows)
        assert repacked[0][0] is ys[0] and repacked[0][1] is r
        assert repacked[1][0].num.ring is repacked[1][1].num.ring

    def test_a_product_past_the_layout_limit_is_repacked(self, kernel,
                                                           repacks):
        s, t = Scalar.gens(["s", "t"])
        u, v = Vector([s ** 70]), Vector([t ** 70])
        ring = u[0].num.ring
        assert v[0].num.ring is ring and 70 < ring.cap <= 140
        A = AlgebraSpec("one", 1, ["e0"], mu=[(0, 0, 0, 1)])
        got = mul(A, u, v)
        _assert_same(got.coords, _fold_mul(A, u, v))
        assert got[0] == s ** 70 * t ** 70
        assert len(repacks) == 1 and got[0].num.ring.cap > 140
        assert kernel and None not in kernel
        # just under the limit the kernel keeps the layout
        u, v = Vector([s ** 60]), Vector([t ** 60])
        got = mul(A, u, v)
        _assert_same(got.coords, _fold_mul(A, u, v))
        assert len(repacks) == 1 and got[0].num.ring is ring

    @pytest.mark.parametrize("seed", range(3))
    def test_a_wide_layout(self, kernel, repacks, seed):
        names = ["p%d" % i for i in range(130)]
        gens = Scalar.gens(names)
        assert gens[0].num.ring.limit == 0   # keys are tuples, never overflow
        rng = random.Random(1630 + seed)
        A, f, g, u, v = _random_case(rng, rng.sample(gens, 8), FRACTIONS, 3)
        _assert_all_match(A, f, g, u, v)
        assert kernel and repacks == []

    def test_zero_and_constant_vectors(self, kernel, repacks, octonions):
        A = octonions.algebra
        zero = Vector.zero(A.dim)
        c = Vector([Scalar.from_fraction(Fraction(i - 3, 2)) for i in range(8)])
        for u, v in ((zero, c), (c, zero), (zero, zero), (c, c)):
            _assert_same(mul(A, u, v).coords, _fold_mul(A, u, v))
        f = LinMap([[Fraction(i * j - 5, 3) for j in range(8)]
                    for i in range(8)])
        for v in (zero, c):
            _assert_same(apply_map(f, v).coords, _fold_apply(f, v))
        assert mul(A, zero, c).is_zero()
        assert kernel and repacks == []

    def test_a_rational_table_matches_the_fold(self, kernel, repacks):
        A = catalog.get("alt4_mu1_twist_alpha1").algebra
        assert not all(c.den.is_one() for c in A.mu_scalars())
        assert not all(c.den.is_one() for c in A.alpha.scalars())
        rng = random.Random(1640)
        gens = Scalar.gens(["a", "b", "x1", "x2"])
        u, v = (Vector([_draw(rng, gens, FRACTIONS) for _ in range(A.dim)])
                for _ in range(2))
        _assert_same(mul(A, u, v).coords, _fold_mul(A, u, v))
        _assert_same(apply_map(A.alpha, u).coords, _fold_apply(A.alpha, u))
        for row, want in zip(compose(A.alpha, A.alpha).rows,
                             _fold_compose(A.alpha, A.alpha)):
            _assert_same(row, want)
        assert kernel and None not in kernel
        # the vectors and the table are in two layouts, so mul and apply_map
        # re-pack once each; alpha is in one layout, so compose does not
        assert len(repacks) == 2

    def test_a_rational_vector_matches_the_fold(self, kernel, repacks,
                                                octonions):
        A = octonions.algebra
        u = Vector([S("a") / (S("a") + 1)] + [S("b")] * 7)
        v = Vector([S("a")] * 8)
        _assert_same(mul(A, u, v).coords, _fold_mul(A, u, v))
        _assert_same(apply_map(identity(8), u).coords,
                     _fold_apply(identity(8), u))
        assert kernel and None not in kernel
        # mul re-packs once, as b and a are in two layouts; apply_map's
        # products with a/(a + 1) are Scalar products in any layouts
        assert len(repacks) == 1

    def test_a_sum_of_reciprocals_takes_no_multi_term_gcd(self, monkeypatch):
        # the constant 1/S + 1/(S + 1) over the sum S of 200 names: its
        # products with monomials keep Henrici's cross gcds, each with a
        # single-term operand; one gcd of a multiplied-out coordinate with
        # the denominator S^2 + S would take GCDHEU about a second
        names = ["p%d" % i for i in range(1, 201)]
        total = sum(Scalar.gens(names), Scalar.zero())
        c = 1 / total + 1 / (total + 1)
        A = AlgebraSpec("reciprocals", 1, ["e"], [Param(n) for n in names],
                        [(0, 0, 0, c)])
        (P,), _, _, v, _ = algebra_module._generic_elements((A,), "xy")
        calls = []
        heu = scalars._heu_gcd

        def spy(p, q):
            calls.append((p, q))
            return heu(p, q)

        monkeypatch.setattr(scalars, "_heu_gcd", spy)
        got = mul(P, v["x"], v["y"])
        assert calls == []
        assert got[0] == c * v["x"][0] * v["y"][0]


# --- every construction route, against the fold --------------------------------


class TestEveryRoute:
    @pytest.mark.parametrize("seed", range(6))
    def test_products_match_the_fold(self, kernel, seed):
        # rational draws such as 1/a and b/(a + 1) put real denominators in
        # the tables, maps and vectors of every route
        rng = random.Random(1660 + seed)
        gens = Scalar.gens(["a", "b", "x1", "x2"])
        a, b = gens[:2]
        dim = rng.randint(2, 3)
        A, f, g, u, v = _random_case(rng, gens, FRACTIONS, dim,
                                     rational=(1 / a, b / (a + 1)))
        twist = LinMap.diagonal([a + 1, 1 / a, b][:dim])
        algebras = [A, A.substitute({"a": 2}), A.substitute({"b": 0}),
                    A.with_alpha(twist), opposite(A), polarize(A),
                    yau_twist(A, twist, force=True),
                    untwist(A.with_alpha(twist))]
        for B in algebras:
            _assert_same(mul(B, u, v).coords, _fold_mul(B, u, v))
            _assert_same(mul(B, v, u).coords, _fold_mul(B, v, u))
            # each route leaves its table and twist map in one layout
            assert len(_layouts(B.mu_scalars(), B.alpha.scalars()
                                if B.alpha is not None else ())) <= 1
        maps = [f, g, twist, invert(twist), compose(f, twist),
                f.substitute({"a": 3}), identity(dim)]
        for m in maps:
            _assert_same(apply_map(m, u).coords, _fold_apply(m, u))
            for n in (g, twist):
                for row, want in zip(compose(m, n).rows, _fold_compose(m, n)):
                    _assert_same(row, want)
            assert len(_layouts(m.scalars())) <= 1
        assert kernel
