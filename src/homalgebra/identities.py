"""Semantics of the identity language: evaluation, checking and the builtins.

An IdentityAST (see homalgebra.parser, which holds the tree, the parser and
the printer) is an expression over variables, the product mu, powers of the
twisting map, rational coefficients and signed sums, asserted equal to zero.
Evaluation computes each distinct subterm once, so a repeated subterm such
as mu(x, x) in the Jordan identities costs one product.  A check binds every
variable to a vector of fresh indeterminates, evaluates the identity once
and tests that every coordinate is the identically-zero rational function.
This is sound and complete for arbitrary (also nonlinear) identities over
the infinite coefficient field.  The two strategies differ only in the
witness of a failure:

  generic - the first nonzero coordinate of the generic residual, with small
            integer coordinates that exhibit a concrete counterexample.
  basis   - the first basis tuple (last variable moving fastest) at which the
            identity fails.  Only for multilinear identities (each product
            monomial uses each variable exactly once), whose residual holds
            the value at (b_i, b_j, ...) as the coefficient of x_i*y_j*...;
            it is read by substituting 1 for x_i, y_j, ... and 0 for every
            other generic coordinate.

The builtin catalog holds the twisted associativity, alternativity (plain
and linearized), flexibility, associator alternation, commutativity, Jordan
identities and their variant shapes, plus the two anticommuting-pair
consequences which are meant to be evaluated on chosen bindings rather than
universally.  Each builtin is defined by its surface form alone and parsed
on the first lookup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraSpec,
    CheckReport,
    LinMap,
    Vector,
    _collect_constraints,
    _defect,
    _verdict,
    apply_map,
    compose,
    mul,
)
from .errors import (
    MissingTwistMap,
    NotMultilinear,
    UnboundVariable,
    UnknownIdentity,
)
# the tree and its printer are re-exported, so homalgebra.identities.Var
# and the other names keep resolving
from .parser import (
    Alpha,
    IdentityAST,
    Mu,
    Scale,
    Sum,
    Var,
    _subterms,
    identity_to_text,
    parse_identity,
)
from .scalars import Scalar, shared_layout


# --- evaluation --------------------------------------------------------------------


def evaluate(A, ast, bindings):
    """Evaluate the AST body over A at the given variable -> Vector bindings."""
    for v in ast.vars:
        if v not in bindings:
            raise UnboundVariable("identity variable %r is not bound" % v)
    return _eval_node(A, ast.body, bindings, {}, {})


def _alpha_power(A, k, cache):
    """alpha^k as alpha^(k//2) composed with alpha^(k - k//2); cache holds
    the powers made so far, so al^32 costs 5 compositions, not 31."""
    if A.alpha is None:
        raise MissingTwistMap(
            "identity uses the twisting map but algebra %r has none" % A.name)
    if k not in cache:
        half = k // 2
        cache[k] = (A.alpha if k == 1 else
                    compose(_alpha_power(A, half, cache),
                            _alpha_power(A, k - half, cache)))
    return cache[k]


def _eval_node(A, node, bindings, cache, memo):
    """Value of node; memo maps each subterm evaluated so far to its value."""
    if isinstance(node, Var):
        try:
            return bindings[node.name]
        except KeyError:
            raise UnboundVariable("identity variable %r is not bound"
                                  % node.name) from None
    value = memo.get(node)
    if value is not None:
        return value
    if isinstance(node, Alpha):
        value = apply_map(_alpha_power(A, node.power, cache),
                          _eval_node(A, node.child, bindings, cache, memo))
    elif isinstance(node, Mu):
        value = mul(A, _eval_node(A, node.left, bindings, cache, memo),
                    _eval_node(A, node.right, bindings, cache, memo))
    elif isinstance(node, Scale):
        value = _eval_node(A, node.child, bindings, cache, memo).scale(
            node.coeff)
    elif isinstance(node, Sum):
        value = Vector.zero(A.dim)
        for sign, child in node.terms:
            term = _eval_node(A, child, bindings, cache, memo)
            value = value + term if sign > 0 else value - term
    else:
        raise TypeError("unknown AST node %r" % (node,))
    memo[node] = value
    return value


def hom_associator(A, x, y, z):
    """mu(alpha(x), mu(y, z)) - mu(mu(x, y), alpha(z)); trilinear."""
    return evaluate(A, builtin("hom_associative").ast,
                    {"x": x, "y": y, "z": z})


# --- multilinearity ------------------------------------------------------------------


def is_multilinear(ast):
    """True iff every product monomial of the expanded body uses each
    variable exactly once."""
    target = frozenset((v, 1) for v in ast.vars)
    return all(m == target for m in _monomial_profiles(ast.body))


def _monomial_profiles(node):
    if isinstance(node, Var):
        return {frozenset(((node.name, 1),))}
    if isinstance(node, (Alpha, Scale)):
        return _monomial_profiles(node.child)
    if isinstance(node, Mu):
        out = set()
        for a in _monomial_profiles(node.left):
            for b in _monomial_profiles(node.right):
                merged = dict(a)
                for v, e in b:
                    merged[v] = merged.get(v, 0) + e
                out.add(frozenset(merged.items()))
        return out
    if isinstance(node, Sum):
        out = set()
        for _, child in node.terms:
            out |= _monomial_profiles(child)
        return out
    raise TypeError("unknown AST node %r" % (node,))


# --- generic elements -----------------------------------------------------------------


def generic_element(A, var, taken=()):
    """Vector whose coordinates are fresh indeterminates for variable var."""
    return Vector(Scalar.gens(_coordinate_names(A, [var], taken)))


def _coordinate_names(A, variables, taken):
    """dim fresh names for each of variables, in turn, that avoid A's
    parameters, taken and every earlier name."""
    avoid = set(A.param_names()) | set(taken)
    names = []
    for var in variables:
        for i in range(A.dim):
            name = "%s_%d" % (var, i + 1)
            while name in avoid:
                name = "g" + name
            avoid.add(name)
            names.append(name)
    return names


def _generic_elements(A, variables, taken, uses_alpha):
    """A and {var: generic element} for each of variables (see
    _coordinate_names).  The coordinates share one layout with A's structure
    constants (and its twist map when uses_alpha), which the returned A
    holds re-packed into it, so an evaluation never re-packs a key."""
    names = _coordinate_names(A, variables, taken)
    scalars = list(A.mu_scalars())
    if uses_alpha:
        scalars += A.alpha.scalars()
    packed, coords = shared_layout(scalars, names)
    if any(p is not s for p, s in zip(packed, scalars)):
        mu = [(i, j, k, c) for (i, j, k, _), c in zip(A.mu, packed)]
        alpha = A.alpha
        if uses_alpha:
            rest = packed[len(mu):]
            alpha = LinMap([rest[r * A.dim:(r + 1) * A.dim]
                            for r in range(A.dim)])
        A = AlgebraSpec(A.name, A.dim, A.basis, A.params, mu, alpha, A.unit)
    return A, {var: Vector(coords[n * A.dim:(n + 1) * A.dim])
               for n, var in enumerate(variables)}


# --- checking -------------------------------------------------------------------------

# random small-integer points tried for a generic-strategy counterexample
_SPECIALIZATION_TRIES = 120


def check(A, ast, strategy="generic"):
    """Verify ast = 0 over A, universally in its variables.

    Both strategies evaluate once on generic elements; see the module
    docstring for the witness each gives when the identity fails.
    """
    if strategy not in ("generic", "basis"):
        raise ValueError("unknown strategy %r" % strategy)
    if strategy == "basis" and not is_multilinear(ast):
        raise NotMultilinear(
            "basis strategy is only sound for multilinear identities")
    nodes = tuple(_subterms(ast.body))
    coeffs = [n.coeff for n in nodes if isinstance(n, Scale)]
    uses_alpha = A.alpha is not None and any(isinstance(n, Alpha)
                                             for n in nodes)
    assumptions = _collect_constraints(
        A.mu_scalars(), A.alpha.scalars() if uses_alpha else None, coeffs)
    # generic coordinates must not capture a variable of a coefficient
    taken = set().union(*(c.variables() for c in coeffs))
    A, bindings = _generic_elements(A, ast.vars, taken, uses_alpha)
    value = evaluate(A, ast, bindings)
    if value.is_zero():
        return CheckReport(_verdict(assumptions), None, assumptions)
    if strategy == "basis":
        witness = _basis_witness(A, ast, bindings, value)
    else:
        witness = _defect(None, A.basis, value,
                          _find_specialization(value, bindings, A))
    return CheckReport("fails", witness, assumptions)


def _basis_witness(A, ast, bindings, value):
    """Witness at the lexicographically first failing basis tuple.

    Every numerator monomial of a multilinear residual holds exactly one
    generic coordinate of each variable, and its denominator holds none; so
    setting x_i, y_j, ... to 1 and every other generic coordinate to 0 leaves
    the value at (b_i, b_j, ...).
    """
    slot = {}
    for p, v in enumerate(ast.vars):
        for i, c in enumerate(bindings[v].coords):
            (name,) = c.variables()
            slot[name] = (p, i)
    at = min(tuple(i for _, i in sorted(slot[name] for name in m.variables()
                                        if name in slot))
             for c in value.coords for m in c.num.monomials())
    point = {name: int(at[p] == i) for name, (p, i) in slot.items()}
    at_value = Vector([c.substitute(point) for c in value.coords])
    return _defect(tuple(A.basis[i] for i in at), A.basis, at_value)


def _find_specialization(value, bindings, A):
    """Small integer coordinates exhibiting a concrete counterexample.

    Substitutes the generic coordinates only; algebra parameters stay
    symbolic.  Returns {var: coordinate tuple} or None if nothing small
    works.
    """
    coord_vars = []
    for vec in bindings.values():
        for c in vec.coords:
            coord_vars.extend(c.num.variables())
    rng = random.Random(20240901)
    pool = [0, 1, -1, 2, -2, 3]
    for attempt in range(_SPECIALIZATION_TRIES):
        if attempt == 0:
            point = {v: Fraction(1) for v in coord_vars}
        else:
            point = {v: Fraction(rng.choice(pool)) for v in coord_vars}
        for c in value.coords:
            if c.is_zero():
                continue
            if not c.num.substitute(point).is_zero():
                out = {}
                for var, vec in bindings.items():
                    out[var] = tuple(
                        coord.num.substitute(point).constant_value()
                        for coord in vec.coords)
                return out
    return None


# --- builtin catalog ---------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinIdentity:
    """A named identity with its AST(s) and surface form(s).

    asts has a single element for plain identities; combination entries
    (noncommutative_hom_jordan) carry one AST per conjunct.  universal is
    False for identities meant to be evaluated on chosen bindings (the
    anticommuting-pair consequences) rather than over all of V.
    """

    name: str
    asts: tuple
    surfaces: tuple
    requires_commutative: bool = False
    universal: bool = True
    note: str = ""

    @property
    def ast(self):
        if len(self.asts) != 1:
            raise ValueError("%r bundles %d identities; use .asts"
                             % (self.name, len(self.asts)))
        return self.asts[0]

    @property
    def vars(self):
        seen = []
        for ast in self.asts:
            for v in ast.vars:
                if v not in seen:
                    seen.append(v)
        return tuple(seen)


def _make_builtins():
    entries = {}

    def add(name, *surfaces, note, **flags):
        entries[name] = BuiltinIdentity(
            name, tuple(parse_identity(s) for s in surfaces), surfaces,
            note=note, **flags)
        return entries[name]

    add("hom_associative",
        "mu(al(x), mu(y, z)) = mu(mu(x, y), al(z))",
        note="twisted associativity")
    add("left_hom_alternative",
        "mu(al(x), mu(x, y)) = mu(mu(x, x), al(y))",
        note="twisted left alternativity")
    add("right_hom_alternative",
        "mu(al(x), mu(y, y)) = mu(mu(x, y), al(y))",
        note="twisted right alternativity")
    left_linearized = add(
        "left_hom_alternative_linearized",
        "mu(al(x), mu(y, z)) - mu(mu(x, y), al(z))"
        " + mu(al(y), mu(x, z)) - mu(mu(y, x), al(z)) = 0",
        note="left alternativity with the repeated variable split")
    right_linearized = add(
        "right_hom_alternative_linearized",
        "mu(al(x), mu(y, z)) - mu(mu(x, y), al(z))"
        " + mu(al(x), mu(z, y)) - mu(mu(x, z), al(y)) = 0",
        note="right alternativity with the repeated variable split")
    flexible = add(
        "hom_flexible",
        "mu(al(x), mu(y, x)) = mu(mu(x, y), al(x))",
        note="twisted flexibility")
    add("associator_alternating_12", *left_linearized.surfaces,
        note="associator changes sign when the first two arguments swap")
    add("associator_alternating_23", *right_linearized.surfaces,
        note="associator changes sign when the last two arguments swap")
    add("associator_alternating_13",
        "mu(al(x), mu(y, z)) - mu(mu(x, y), al(z))"
        " + mu(al(z), mu(y, x)) - mu(mu(z, y), al(x)) = 0",
        note="associator changes sign when the outer arguments swap")
    add("commutative",
        "mu(x, y) = mu(y, x)",
        note="commutativity of the product")
    jordan = add(
        "hom_jordan",
        "mu(al^2(x), mu(y, mu(x, x))) = mu(mu(al(x), y), al(mu(x, x)))",
        requires_commutative=True,
        note="twisted Jordan identity, with al^2 on the leading factor")
    add("hom_jordan_variant_a",
        "mu(al(x), mu(y, mu(x, x))) = mu(mu(x, y), al(mu(x, x)))",
        requires_commutative=True,
        note="naive one-al variant of the twisted Jordan identity")
    add("hom_jordan_variant_b",
        "mu(al(x), mu(y, mu(x, x))) = mu(mu(x, y), mu(x, al(x)))",
        requires_commutative=True,
        note="variant with the twist pushed inside the squared factor")
    add("anticommute_left_consequence",
        "mu(al(x), mu(y, z)) + mu(al(y), mu(x, z)) = 0",
        universal=False,
        note="left product consequence for anticommuting x, y; evaluate on "
             "bindings with mu(x, y) = -mu(y, x)")
    add("anticommute_right_consequence",
        "mu(mu(z, x), al(y)) + mu(mu(z, y), al(x)) = 0",
        universal=False,
        note="right product consequence for anticommuting x, y; evaluate on "
             "bindings with mu(x, y) = -mu(y, x)")
    add("noncommutative_hom_jordan",
        *flexible.surfaces, *jordan.surfaces,
        note="flexibility together with the twisted Jordan identity, "
             "commutativity not required")
    return entries


_BUILTINS = None


def _builtins():
    global _BUILTINS
    if _BUILTINS is None:
        _BUILTINS = _make_builtins()
    return _BUILTINS


def builtin(name):
    """Look up a builtin identity by name."""
    try:
        return _builtins()[name]
    except KeyError:
        raise UnknownIdentity("no builtin identity named %r" % name) from None


def builtin_names():
    return tuple(_builtins())


def check_builtin(A, name, strategy="generic"):
    """Check a builtin (all of its conjuncts) over A."""
    b = builtin(name) if isinstance(name, str) else name
    merged_assumptions = []
    for ast in b.asts:
        report = check(A, ast, strategy)
        if not report.holds:
            return report
        for c in report.assumptions:
            if c not in merged_assumptions:
                merged_assumptions.append(c)
    return CheckReport(_verdict(merged_assumptions), None,
                       tuple(merged_assumptions))
