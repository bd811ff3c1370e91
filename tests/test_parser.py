"""Scalar-expression and identity-language parsing."""

import random

import pytest

from homalgebra.errors import (
    ArityError,
    DivisionByZero,
    ParseError,
    UndeclaredParameter,
)
from homalgebra.identities import (
    Alpha,
    IdentityAST,
    Mu,
    Sum,
    Var,
    builtin,
    builtin_names,
    identity_to_text,
    is_multilinear,
)
from homalgebra.parser import parse_identity, parse_scalar_expr
from homalgebra.scalars import Scalar, declared_variables


class TestScalarExpressions:
    def test_product_quotient(self):
        s = parse_scalar_expr("a4*a3/a2", ["a2", "a3", "a4"])
        assert s == Scalar.var("a4") * Scalar.var("a3") / Scalar.var("a2")

    def test_rational_literal(self):
        from fractions import Fraction
        assert parse_scalar_expr("1/2", []) == Scalar.from_fraction(Fraction(1, 2))

    def test_power_and_difference(self):
        s = parse_scalar_expr("a^2 - a", ["a"])
        assert s == Scalar.var("a") ** 2 - Scalar.var("a")

    def test_unary_minus_and_parens(self):
        s = parse_scalar_expr("-(a - b)*b", ["a", "b"])
        a, b = Scalar.var("a"), Scalar.var("b")
        assert s == -(a - b) * b

    def test_precedence(self):
        s = parse_scalar_expr("1 + 2*3^2", [])
        assert s == Scalar.from_fraction(19)

    def test_undeclared_parameter(self):
        with pytest.raises(UndeclaredParameter) as exc:
            parse_scalar_expr("a*zz", ["a"])
        assert exc.value.column == 3

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar_expr("a )", ["a"])

    def test_a_long_product_equals_the_left_fold(self):
        names = ["p%d" % i for i in range(1, 2001)]
        declared = declared_variables(names)
        fold = Scalar.one()
        for g in Scalar.gens(names):
            fold = fold * g
        s = parse_scalar_expr("*".join(names), declared)
        assert s == fold and str(s) == str(fold) and hash(s) == hash(fold)

    def test_products_and_quotients_equal_the_left_fold(self):
        rng = random.Random(11)
        gens = dict(zip("abc", Scalar.gens(["a", "b", "c"])))
        for _ in range(40):
            factors = [rng.choice(["a", "b", "c", "2", "(a+1)", "(b-c)"])
                       for _ in range(rng.randint(1, 9))]
            ops = [rng.choice("**/") for _ in factors[1:]]
            values = [parse_scalar_expr(f, list(gens)) for f in factors]
            fold = values[0]
            for op, v in zip(ops, values[1:]):
                fold = fold * v if op == "*" else fold / v
            text = factors[0] + "".join(o + f for o, f in zip(ops, factors[1:]))
            assert parse_scalar_expr(text, list(gens)) == fold
            assert parse_scalar_expr(text, gens) == fold

    def test_errors_in_a_product_are_unchanged(self):
        with pytest.raises(UndeclaredParameter) as exc:
            parse_scalar_expr("a*b*undeclared", ["a", "b"])
        assert str(exc.value) == ("undeclared parameter 'undeclared' "
                                  "(line 1, column 5)")
        assert (exc.value.offset, exc.value.expected, exc.value.found) == (
            4, "declared parameter", "undeclared")
        # a division raises as it is read, before a later factor is parsed
        for text in ("1/0*x", "a*b/0*c*(", "2*a/(a-a)*q"):
            with pytest.raises(DivisionByZero,
                               match="^division by the zero scalar$"):
                parse_scalar_expr(text, ["a", "b", "c"])
        with pytest.raises(ParseError) as exc:
            parse_scalar_expr("a*(b", ["a", "b"])
        assert str(exc.value) == ("expected closing parenthesis, found "
                                  "'end of input' (line 1, column 5)")
        assert (exc.value.expected, exc.value.found) == (
            "closing parenthesis", "")

    def test_roundtrip_printed_scalars(self, rng):
        from conftest import random_scalar
        for _ in range(30):
            s = random_scalar(rng)
            again = parse_scalar_expr(str(s), ["a", "b"])
            assert again == s


class TestIdentityLanguage:
    def test_left_alternative_shape(self):
        ast = parse_identity("mu(al(x), mu(x,y)) = mu(mu(x,x), al(y))")
        assert ast == builtin("left_hom_alternative").ast
        assert ast.vars == ("x", "y")

    def test_jordan_shape_with_al_power(self):
        ast = parse_identity(
            "mu(al^2(x), mu(y, mu(x,x))) = mu(mu(al(x), y), al(mu(x,x)))")
        assert ast == builtin("hom_jordan").ast

    def test_missing_comma_position(self):
        with pytest.raises(ParseError) as exc:
            parse_identity("mu(x y)")
        # the offending token is 'y' at offset 5
        assert exc.value.offset == 5

    def test_mu_arity(self):
        with pytest.raises(ArityError):
            parse_identity("mu(x) = 0")
        with pytest.raises(ArityError):
            parse_identity("mu(x, y, z) = 0")

    def test_al_arity(self):
        with pytest.raises(ArityError):
            parse_identity("al(x, y) = 0")

    def test_al_power_must_be_positive(self):
        with pytest.raises(ParseError):
            parse_identity("al^0(x) = 0")

    def test_rational_coefficient(self):
        ast = parse_identity("2*mu(x, y) - mu(y, x) = mu(x, y)")
        # normalizes to 2 mu(x,y) - mu(y,x) - mu(x,y) = 0
        assert isinstance(ast.body, Sum)
        assert len(ast.body.terms) == 3

    def test_zero_right_hand_side(self):
        ast = parse_identity("mu(x, y) - mu(y, x) = 0")
        assert ast == builtin("commutative").ast

    def test_vars_in_first_use_order(self):
        ast = parse_identity("mu(z, mu(y, x)) = 0")
        assert ast.vars == ("z", "y", "x")

    def test_multilinearity_flags(self):
        assert is_multilinear(
            parse_identity("mu(al(x), mu(y, z)) = mu(mu(x, y), al(z))"))
        assert not is_multilinear(
            parse_identity("mu(al(x), mu(x, y)) = mu(mu(x, x), al(y))"))
        assert is_multilinear(parse_identity("x = x"))


class TestBuiltinRoundTrips:
    @pytest.mark.parametrize("name", builtin_names())
    def test_surface_form_parses_to_builtin(self, name):
        b = builtin(name)
        for surface, ast in zip(b.surfaces, b.asts):
            assert parse_identity(surface) == ast

    @pytest.mark.parametrize("name", builtin_names())
    def test_pretty_print_reparses_identically(self, name):
        b = builtin(name)
        for ast in b.asts:
            printed = identity_to_text(ast)
            assert parse_identity(printed) == ast


def _hand_built_trees():
    """Builtin trees spelled with the node classes alone, independent of
    the parser: mu(al(a), mu(b, c)) - mu(mu(a, b), al(c)) and friends."""
    x, y, z = Var("x"), Var("y"), Var("z")

    def associator_terms(a, b, c):
        return ((1, Mu(Alpha(1, a), Mu(b, c))),
                (-1, Mu(Mu(a, b), Alpha(1, c))))

    xx = Mu(x, x)
    return {
        "hom_associative": IdentityAST(
            ("x", "y", "z"), Sum(associator_terms(x, y, z))),
        "left_hom_alternative": IdentityAST(
            ("x", "y"), Sum(((1, Mu(Alpha(1, x), Mu(x, y))),
                             (-1, Mu(xx, Alpha(1, y)))))),
        "right_hom_alternative_linearized": IdentityAST(
            ("x", "y", "z"),
            Sum(associator_terms(x, y, z) + associator_terms(x, z, y))),
        "hom_jordan": IdentityAST(
            ("x", "y"), Sum(((1, Mu(Alpha(2, x), Mu(y, xx))),
                             (-1, Mu(Mu(Alpha(1, x), y), Alpha(1, xx)))))),
    }


class TestBuiltinTrees:
    # builtins are parsed from their surface forms; these trees are an
    # oracle for what the parser must make of them
    @pytest.mark.parametrize("name", sorted(_hand_built_trees()))
    def test_builtin_equals_hand_built_tree(self, name):
        expected = _hand_built_trees()[name]
        assert builtin(name).asts == (expected,)
        assert repr(builtin(name).asts) == repr((expected,))


class TestErrorPositions:
    VALID = [
        "mu(al(x), mu(x, y)) = mu(mu(x, x), al(y))",
        "mu(al^2(x), mu(y, mu(x, x))) = mu(mu(al(x), y), al(mu(x, x)))",
        "2*mu(x, y) - mu(y, x) = 0",
    ]

    def test_truncated_inputs_report_positions_inside(self):
        rng = random.Random(5)
        for text in self.VALID:
            for _ in range(20):
                cut = rng.randrange(1, len(text))
                prefix = text[:cut]
                try:
                    parse_identity(prefix)
                except ParseError as exc:
                    assert 0 <= exc.offset <= len(prefix)
                except Exception as exc:   # pragma: no cover
                    pytest.fail("unexpected error type %r" % exc)
