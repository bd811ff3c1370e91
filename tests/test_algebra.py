"""Algebra-core operations: products, linear maps, certificates, twist,
untwist, opposite, polarization, subalgebras, units."""

import random
from fractions import Fraction

import pytest

from homalgebra import catalog
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


class TestCertificatesAgainstReference:
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
