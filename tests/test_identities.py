"""Identity evaluation, the two checking strategies, multilinearity and the
builtin catalog."""

import itertools
import random
from fractions import Fraction

import pytest

from homalgebra import catalog, identities, scalars
from homalgebra.algebra import (
    AlgebraSpec,
    LinMap,
    Param,
    Vector,
    compose,
    polarize,
    yau_twist,
)
from homalgebra.errors import (
    MissingTwistMap,
    NotMultilinear,
    UnboundVariable,
    UnknownIdentity,
)
from homalgebra.identities import (
    Alpha,
    Mu,
    Scale,
    Sum,
    Var,
    builtin,
    builtin_names,
    check,
    check_builtin,
    evaluate,
    generic_element,
    hom_associator,
    is_multilinear,
    IdentityAST,
)
from homalgebra.parser import _subterms, parse_identity
from homalgebra.scalars import Scalar, exact_div


def S(name):
    return Scalar.var(name)


@pytest.fixture(scope="module")
def h3():
    return catalog.get("hom_assoc_3d").algebra


@pytest.fixture(scope="module")
def octonions_id():
    return catalog.get("octonions").algebra.with_identity_alpha()


class TestHomAssociator:
    def test_vanishes_with_declared_alpha(self, h3):
        e1, e3 = h3.basis_vector("e1"), h3.basis_vector("e3")
        assert hom_associator(h3, e1, e1, e3).is_zero()

    def test_untwisted_defect(self, h3):
        # with alpha = id the associator at (e1, e1, e3) is (b - a) b e3,
        # the opposite order of the defect mu(mu(e1,e1),e3) - mu(e1,mu(e1,e3))
        A = h3.with_identity_alpha()
        e1, e3 = A.basis_vector("e1"), A.basis_vector("e3")
        got = hom_associator(A, e1, e1, e3)
        assert got == e3.scale((S("b") - S("a")) * S("b"))

    def test_4dim_defect(self):
        # mu1(e2, mu1(e3, e0)) - mu1(mu1(e2, e3), e0) = mu1(e2, e3) - 0 = e1
        A = catalog.get("alt4_mu1").algebra.with_identity_alpha()
        e0, e2, e3 = (A.basis_vector(k) for k in ("e0", "e2", "e3"))
        assert hom_associator(A, e2, e3, e0) == A.basis_vector("e1")

    def test_twisted_octonions_classical_defect(self):
        # the twisted table read as an ordinary algebra is not alternative:
        # the associator at (u, u, e1) is exactly (a^2 - a) e1
        A = catalog.get("octonions_twist_diag").algebra.with_identity_alpha()
        u, e1 = A.basis_vector("u"), A.basis_vector("e1")
        got = hom_associator(A, u, u, e1)
        assert got == e1.scale(S("a") ** 2 - S("a"))

    def test_requires_alpha(self):
        A = catalog.get("alt4_mu1").algebra
        v = A.basis_vector("e0")
        with pytest.raises(MissingTwistMap):
            hom_associator(A, v, v, v)

    def test_trilinear(self, octonions_id):
        A = octonions_id
        lam = S("a")
        u = generic_element(A, "u")
        up = generic_element(A, "v", taken=[str(c.num) for c in u.coords])
        y = generic_element(A, "w")
        z = generic_element(A, "s")
        lhs = hom_associator(A, u.scale(lam) + up, y, z)
        rhs = hom_associator(A, u, y, z).scale(lam) + hom_associator(A, up, y, z)
        assert (lhs - rhs).is_zero()


class TestEvaluate:
    def test_mu_node(self):
        A = catalog.get("octonions").algebra
        ast = IdentityAST(("x", "y"), Mu(Var("x"), Var("y")))
        got = evaluate(A, ast, {"x": A.basis_vector("e3"),
                                "y": A.basis_vector("e6")})
        assert got == -A.basis_vector("e4")

    def test_cancelling_sum(self, h3):
        ast = IdentityAST(("x",), Sum(((1, Var("x")), (-1, Var("x")))))
        v = h3.basis_vector("e2")
        assert evaluate(h3, ast, {"x": v}).is_zero()

    def test_unbound_variable(self, h3):
        ast = IdentityAST(("x",), Var("x"))
        with pytest.raises(UnboundVariable):
            evaluate(h3, ast, {})

    def test_alpha_node_needs_twist_map(self):
        A = catalog.get("alt4_mu1").algebra   # no twist map
        ast = builtin("left_hom_alternative").ast
        with pytest.raises(MissingTwistMap):
            evaluate(A, ast, {"x": A.basis_vector(0), "y": A.basis_vector(1)})

    def test_repeated_subterm_is_evaluated_once(self, octonions_id,
                                                monkeypatch):
        # hom_jordan spells mu(x, x) twice; the other four products are
        # distinct, so one evaluation makes five products, not six
        calls = []
        real_mul = identities.mul

        def counting_mul(A, u, v):
            calls.append((u, v))
            return real_mul(A, u, v)

        monkeypatch.setattr(identities, "mul", counting_mul)
        A = octonions_id
        x = generic_element(A, "x")
        y = generic_element(A, "y", taken=[str(c.num) for c in x.coords])
        evaluate(A, builtin("hom_jordan").ast, {"x": x, "y": y})
        assert len(calls) == 5

    def test_alpha_power_composes_by_halving(self, monkeypatch):
        # al^32 is al^16 twice, al^16 is al^8 twice, and so on down to al:
        # five compositions, not 31
        calls = []
        real_compose = identities.compose

        def counting_compose(f, g):
            calls.append((f, g))
            return real_compose(f, g)

        monkeypatch.setattr(identities, "compose", counting_compose)
        A = catalog.get("alt4_mu1_twist_alpha1").algebra
        evaluate(A, parse_identity("al^32(x) = al^32(x)"),
                 {"x": A.basis_vector(0)})
        assert len(calls) == 5

    def test_alpha_power_matches_iterated_composition(self):
        A = catalog.get("alt4_mu1_twist_alpha1").algebra
        iterated = A.alpha
        for k in range(1, 10):
            assert identities._alpha_power(A, k, {}) == iterated, k
            iterated = compose(A.alpha, iterated)

    def test_jordan_on_basis_pairs_of_forced_twist(self):
        # the forced twist of the polarized table satisfies the twisted
        # Jordan identity on every basis pair, although not universally
        # (a nonlinear identity can vanish on a basis yet fail on sums)
        hj = catalog.get("hom_jordan_3d")
        plain = hj.algebra.with_alpha(None)
        forced = yau_twist(plain, hj.maps["alpha"], force=True)
        ast = builtin("hom_jordan").ast
        for i in range(3):
            for j in range(3):
                value = evaluate(forced, ast,
                                 {"x": forced.basis_vector(i),
                                  "y": forced.basis_vector(j)})
                assert value.is_zero(), (i, j)
        assert not check_builtin(forced, "hom_jordan").holds


class TestCheck:
    def test_h3_hom_associative_generic(self, h3):
        assert check_builtin(h3, "hom_associative", "generic").verdict == "holds"

    def test_h3_with_identity_alpha_fails_divisibly(self, h3):
        r = check_builtin(h3.with_identity_alpha(), "hom_associative", "generic")
        assert r.verdict == "fails"
        residual = r.witness.residual.num
        # divisible by (a - b) and by b
        q = exact_div(residual, S("a").num - S("b").num)
        exact_div(q, S("b").num)

    def test_octonions_left_alternative_generic(self, octonions_id):
        assert check_builtin(octonions_id, "left_hom_alternative").holds

    def test_basis_strategy_needs_multilinear(self, h3):
        with pytest.raises(NotMultilinear):
            check(h3, builtin("left_hom_alternative").ast, "basis")

    def test_basis_witness_is_tuple(self):
        A = catalog.get("alt4_mu1").algebra.with_identity_alpha()
        r = check_builtin(A, "hom_associative", "basis")
        assert r.verdict == "fails"
        assert len(r.witness.at) == 3
        assert not r.witness.residual.is_zero()

    def test_generic_failure_carries_specialization(self, h3):
        r = check_builtin(h3.with_identity_alpha(), "hom_associative")
        assert r.witness.specialization is not None
        assert set(r.witness.specialization) == {"x", "y", "z"}

    def test_assumptions_surface_in_verdict(self):
        A = catalog.get("alt4_mu1_twist_alpha1").algebra
        r = check_builtin(A, "left_hom_alternative")
        assert r.verdict == "holds-under-assumptions"
        assert "a2 != 0" in r.assumptions


class TestMultilinearity:
    def test_linearized_form_is_multilinear(self):
        assert is_multilinear(builtin("left_hom_alternative_linearized").ast)

    def test_repeated_variable_is_not(self):
        assert not is_multilinear(builtin("left_hom_alternative").ast)

    def test_single_var(self):
        assert is_multilinear(IdentityAST(("x",), Var("x")))

    def test_jordan_not_multilinear(self):
        assert not is_multilinear(builtin("hom_jordan").ast)


class TestBuiltins:
    def test_jordan_vars(self):
        assert builtin("hom_jordan").vars == ("x", "y")

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            builtin("nonsense")

    def test_catalog_contents(self):
        expected = {
            "hom_associative", "left_hom_alternative", "right_hom_alternative",
            "left_hom_alternative_linearized", "right_hom_alternative_linearized",
            "hom_flexible", "associator_alternating_12",
            "associator_alternating_23", "associator_alternating_13",
            "commutative", "hom_jordan", "hom_jordan_variant_a",
            "hom_jordan_variant_b", "anticommute_left_consequence",
            "anticommute_right_consequence", "noncommutative_hom_jordan",
        }
        assert set(builtin_names()) == expected

    def test_combination_entry(self):
        combo = builtin("noncommutative_hom_jordan")
        assert len(combo.asts) == 2
        with pytest.raises(ValueError):
            combo.ast

    def test_requires_commutative_flags(self):
        assert builtin("hom_jordan").requires_commutative
        assert builtin("hom_jordan_variant_a").requires_commutative
        assert not builtin("hom_associative").requires_commutative
        assert not builtin("noncommutative_hom_jordan").requires_commutative

    @pytest.mark.parametrize("name", builtin_names())
    def test_surface_parses_to_the_stored_ast(self, name):
        # a fresh parse is a distinct tree that must hit the same memo and
        # result-cache entries as the stored one
        b = builtin(name)
        for surface, ast in zip(b.surfaces, b.asts):
            again = parse_identity(surface)
            assert again is not ast
            assert again == ast and hash(again) == hash(ast)
            assert all(x == y and hash(x) == hash(y) for x, y in
                       zip(_subterms(again.body), _subterms(ast.body)))


class TestStructuralProperties:
    def test_hom_associative_implies_alternative(self, h3):
        assert check_builtin(h3, "hom_associative").holds
        assert check_builtin(h3, "left_hom_alternative").holds
        assert check_builtin(h3, "right_hom_alternative").holds

    def test_alternating_associator_on_octonions(self, octonions_id):
        for name in ("associator_alternating_12", "associator_alternating_23",
                     "associator_alternating_13", "hom_flexible"):
            assert check_builtin(octonions_id, name).holds, name

    def test_linearization_equivalence_both_ways(self):
        # holds on an alternative table, fails on a non-alternative one,
        # with matching verdicts for the plain and linearized forms
        good = catalog.get("alt4_mu1").algebra.with_identity_alpha()
        bad = catalog.get("octonions_twist_diag").algebra
        for A in (good, bad):
            left = check_builtin(A, "left_hom_alternative").holds
            left_lin = check_builtin(A, "left_hom_alternative_linearized").holds
            assert left == left_lin
            right = check_builtin(A, "right_hom_alternative").holds
            right_lin = check_builtin(A, "right_hom_alternative_linearized").holds
            assert right == right_lin

    def test_anticommuting_pair_consequences(self, octonions_id):
        A = octonions_id
        x, y = A.basis_vector("e1"), A.basis_vector("e2")
        # the pair anticommutes
        from homalgebra.algebra import mul
        assert mul(A, x, y) == -mul(A, y, x)
        z = generic_element(A, "z")
        for name in ("anticommute_left_consequence",
                     "anticommute_right_consequence"):
            ast = builtin(name).ast
            assert evaluate(A, ast, {"x": x, "y": y, "z": z}).is_zero(), name

    def test_opposite_swaps_left_and_right(self):
        from homalgebra.algebra import opposite
        A = catalog.get("alt4_mu2_twist_alpha2").algebra
        op = opposite(A)
        assert check_builtin(A, "left_hom_alternative").holds == \
            check_builtin(op, "right_hom_alternative").holds
        assert check_builtin(A, "right_hom_alternative").holds == \
            check_builtin(op, "left_hom_alternative").holds

    def test_strategy_agreement_spot(self):
        A = catalog.get("hom_assoc_3d").algebra
        for name in ("hom_associative", "commutative",
                     "left_hom_alternative_linearized"):
            g = check_builtin(A, name, "generic")
            b = check_builtin(A, name, "basis")
            assert g.holds == b.holds, name


def _odometer(A, ast):
    """Reference for the basis strategy, independent of the generic residual:
    evaluate on every basis tuple, the last variable moving fastest, and
    return (at, coordinate, residual, value) of the first nonzero value, or
    None."""
    for at in itertools.product(range(A.dim), repeat=len(ast.vars)):
        value = evaluate(A, ast, {v: A.basis_vector(i)
                                  for v, i in zip(ast.vars, at)})
        for k, c in enumerate(value.coords):
            if not c.is_zero():
                return tuple(A.basis[i] for i in at), A.basis[k], c, value
    return None


def _x1_table():
    # the parameter x_1 pushes the generic coordinates of x to gx_1, gx_2
    x1 = S("x_1")
    return AlgebraSpec(
        "x1_table", 2, ["v", "w"], params=[Param("x_1", True)],
        mu=[(0, 0, 1, x1), (0, 1, 1, Scalar.one() / x1), (1, 0, 0, x1 - 1)],
        alpha=LinMap.diagonal([Scalar.one(), x1]))


def _table(key):
    if key == "x1_table":
        return _x1_table()
    A = catalog.get(key).algebra
    return A if A.alpha is not None else A.with_identity_alpha()


_TABLES = catalog.list_keys() + ("x1_table",)
_MULTILINEAR = [n for n in builtin_names()
                if all(is_multilinear(a) for a in builtin(n).asts)]


@pytest.mark.parametrize("form", ["packed", "wide"])
@pytest.mark.parametrize("name", _MULTILINEAR)
@pytest.mark.parametrize("key", _TABLES)
def test_basis_witness_matches_odometer(key, name, form, monkeypatch):
    # the wide form checks with every layout made wide (a _PACK_BITS of 0,
    # as the key_form fixture does), so the witness is read off tuple keys;
    # the table is built first, so the catalog keeps its packed entries
    A = _table(key)
    if form == "wide":
        monkeypatch.setattr(scalars, "_PACK_BITS", 0)
    for ast in builtin(name).asts:
        report = check(A, ast, "basis")
        expected = _odometer(A, ast)
        if expected is None:
            assert report.holds
        else:
            w = report.witness
            assert report.verdict == "fails"
            assert (w.at, w.coordinate, w.residual,
                    w.residual_vector) == expected
            assert (isinstance(w.residual.num.ring, scalars._Wide)
                    == (form == "wide"))


def _substituting_specialization(value, bindings):
    """The generic strategy's counterexample search as it read the residual
    before it split keys: substitute each point into every coordinate."""
    coord_vars = []
    for vec in bindings.values():
        for c in vec.coords:
            coord_vars.extend(c.num.variables())
    rng = random.Random(20240901)
    pool = [0, 1, -1, 2, -2, 3]
    for attempt in range(identities._SPECIALIZATION_TRIES):
        if attempt == 0:
            point = {v: Fraction(1) for v in coord_vars}
        else:
            point = {v: Fraction(rng.choice(pool)) for v in coord_vars}
        for c in value.coords:
            if c.is_zero():
                continue
            if not c.num.substitute(point).is_zero():
                return {var: tuple(coord.num.substitute(point).constant_value()
                                   for coord in vec.coords)
                        for var, vec in bindings.items()}
    return None


@pytest.mark.parametrize("name", builtin_names())
@pytest.mark.parametrize("key", _TABLES)
def test_generic_witness_matches_substitution(key, name):
    # every generic-strategy failure: the same counterexample as the
    # substituting search, and one at which the residual does not vanish;
    # commutativity fails at the first point, x = y, so it needs the rng
    A = _table(key)
    for ast in builtin(name).asts:
        report = check(A, ast, "generic")
        if report.holds:
            continue
        uses_alpha = any(isinstance(n, Alpha) for n in _subterms(ast.body))
        (packed,), _, _, bindings, _ = identities._generic_elements(
            (A,), ast.vars, set(), uses_alpha)
        value = evaluate(packed, ast, bindings)
        assert report.witness.residual_vector == value
        spec = report.witness.specialization
        assert spec == _substituting_specialization(value, bindings)
        assert spec is not None
        point = {c.num.leading_monomial().exps[0][0]: x
                 for var, vec in bindings.items()
                 for c, x in zip(vec.coords, spec[var])}
        assert not Vector([c.substitute(point) for c in value.coords]).is_zero()


def test_generic_elements_copy_the_validated_table():
    # the re-packed tables and map are copies that skip validation: each
    # equals one built from the same entries with validation
    for key in catalog.list_keys():
        A = _table(key)
        # two tables and a map, as a morphism certificate re-packs them
        f = catalog.get(key).maps.get("alpha1", A.alpha)
        tables, g, _, _, _ = identities._generic_elements(
            (A, A.with_alpha(f)), ("x", "y"), set(), True, f)
        for packed, alpha in zip(tables, (A.alpha, f)):
            fresh = AlgebraSpec(A.name, A.dim, A.basis, A.params, packed.mu,
                                packed.alpha, A.unit)
            assert packed.mu == A.mu and packed.alpha == alpha
            for field in ("mu", "_table", "alpha", "params", "unit"):
                assert getattr(packed, field) == getattr(fresh, field), field
        for packed, m in ((g, f), (tables[0].alpha, A.alpha)):
            fresh = LinMap(packed.rows)
            assert packed == m and packed is not m
            assert packed.rows == fresh.rows


class TestGenericElements:
    def test_names_avoid_parameters(self):
        from homalgebra.algebra import AlgebraSpec, Param
        A = AlgebraSpec("clash", 2, ["v", "w"],
                        params=[Param("x_1")], mu=[(0, 0, 0, 1)])
        g = generic_element(A, "x")
        names = {str(c.num) for c in g.coords}
        assert "x_1" not in names

    @pytest.mark.parametrize("coeff_name", ["x_1", "t"])
    def test_names_avoid_coefficient_variables(self, coeff_name):
        # on e*e = e, c*x - mu(x, x) has the generic residual (c*x1 - x1^2) e,
        # which is not zero; it must not collapse when c is named x_1, the
        # name the coordinate of x would take
        A = AlgebraSpec("idempotent", 1, ["e"], mu=[(0, 0, 0, 1)])
        x = Var("x")
        ast = IdentityAST(("x",), Sum(((1, Scale(S(coeff_name), x)),
                                       (-1, Mu(x, x)))))
        report = check(A, ast)
        assert report.verdict == "fails"
        assert coeff_name in report.witness.residual.variables()

    @pytest.mark.parametrize("coeff_name", ["t", "a"])
    @pytest.mark.parametrize("strategy", ["generic", "basis"])
    def test_coefficients_share_the_layout(self, h3, monkeypatch, coeff_name,
                                           strategy):
        # a parametric coefficient is re-packed with the table, so no
        # product or sum of the check re-packs a key through _common
        x, y = Var("x"), Var("y")
        coeff = S(coeff_name)
        ast = IdentityAST(("x", "y"), Sum(((1, Scale(coeff, Mu(x, y))),
                                           (-1, Mu(y, x)))))
        calls = []
        common = scalars._common

        def spy(*args, **kwargs):
            calls.append(args)
            return common(*args, **kwargs)

        monkeypatch.setattr(scalars, "_common", spy)
        report = check(h3, ast, strategy)
        assert calls == []
        monkeypatch.undo()
        # the residual is the one evaluated with the coefficient as given
        (packed,), _, _, bindings, _ = identities._generic_elements(
            (h3,), ast.vars, [coeff])
        assert report.verdict == "fails" and report.assumptions == ()
        w = report.witness
        assert w.coordinate == "e1"
        if strategy == "generic":
            assert w.residual_vector == evaluate(packed, ast, bindings)
            assert w.specialization == {"x": (1, 1, 1), "y": (1, 1, 1)}
        else:
            assert w.at == ("e1", "e1")
            assert w.residual == S("a") * coeff - S("a")
