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
            the value at (b_i, b_j, ...) as the coefficient of x_i*y_j*....

Both witnesses are read off the residual's keys, which the layout's
splitter cuts into a generic part (one factor per variable) and the rest,
a monomial in the parameters.  A generic counterexample is a point at which
some rest has a nonzero sum of its coefficients times their generic parts'
values.  The generic elements and the basis witness (_generic_elements,
_basis_witness) live in homalgebra.algebra, whose endomorphism, morphism
and unit certificates are identities checked the same way.

The builtin catalog holds the twisted associativity, alternativity (plain
and linearized), flexibility, associator alternation, commutativity, Jordan
identities and their variant shapes, plus the two anticommuting-pair
consequences which are meant to be evaluated on chosen bindings rather than
universally.  Each builtin is defined by its surface form alone and parsed
on the first lookup.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import chain

from .algebra import (
    CheckReport,
    Vector,
    _certificate,
    _collect_constraints,
    _defect,
    _generic_elements,
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
from .record import Record
from .scalars import Scalar


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


# cli picks the strategy with it and check gates the basis strategy on it,
# so the same AST is asked twice per check
@functools.lru_cache(maxsize=256)
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


# --- checking -------------------------------------------------------------------------


def generic_element(A, var, taken=()):
    """Vector whose coordinates are fresh indeterminates for variable var,
    names that avoid A's parameters and taken (see _generic_elements)."""
    return _generic_elements((A,), [var], map(Scalar.var, taken))[3][var]


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
    scales = [n for n in nodes if isinstance(n, Scale)]
    uses_alpha = A.alpha is not None and any(isinstance(n, Alpha)
                                             for n in nodes)
    assumptions = _collect_constraints(
        A.mu_scalars(), A.alpha.scalars() if uses_alpha else (),
        (n.coeff for n in scales))
    # the coefficients join the table's layout; generic names avoid theirs
    (A,), _, names, bindings, coeffs = _generic_elements(
        (A,), ast.vars, [n.coeff for n in scales], uses_alpha)
    if scales:
        ast = IdentityAST(ast.vars, _rescaled(ast.body,
                                              dict(zip(scales, coeffs))))
    value = evaluate(A, ast, bindings)
    if strategy == "basis" or value.is_zero():
        return _certificate(assumptions, value, names, A.basis, A.basis)
    return CheckReport("fails", _defect(
        None, A.basis, value, _find_specialization(value, ast.vars, names)),
        assumptions)


def _rescaled(node, coeffs):
    """The tree node with each Scale node's coefficient replaced by
    coeffs[that node]."""
    if isinstance(node, Scale):
        return Scale(coeffs[node], _rescaled(node.child, coeffs))
    if isinstance(node, Alpha):
        return Alpha(node.power, _rescaled(node.child, coeffs))
    if isinstance(node, Mu):
        return Mu(_rescaled(node.left, coeffs), _rescaled(node.right, coeffs))
    if isinstance(node, Sum):
        return Sum(tuple((sign, _rescaled(child, coeffs))
                         for sign, child in node.terms))
    return node


def _find_specialization(value, variables, names):
    """Small integer coordinates exhibiting a concrete counterexample.

    Substitutes the generic coordinates only; algebra parameters stay
    symbolic.  A coordinate's keys are split once, when a point first
    reaches it, into their generic part and the rest; the point is a
    counterexample when, for some rest, the coefficients times their
    generic parts' values at the point sum to nonzero.  Returns
    {var: coordinate tuple} or None if nothing small works.
    """
    position = {n: p for p, n in enumerate(chain.from_iterable(names))}
    nums = [c.num for c in value.coords if not c.is_zero()]
    splitters = {}
    split = []   # the nums split so far, each as its rests' terms
    rng = random.Random(20240901)
    pool = [0, 1, -1, 2, -2, 3]
    for attempt in range(_SPECIALIZATION_TRIES):
        if attempt == 0:
            point = [1] * len(position)
        else:
            point = [rng.choice(pool) for _ in position]
        values = {}   # each generic part's value at point
        for n, num in enumerate(nums):
            if n == len(split):
                split.append(_terms_by_rest(num, names, splitters))
            for terms in split[n]:
                total = 0
                for part, coeff in terms:
                    v = values.get(part)
                    if v is None:
                        v = values[part] = _part_value(part, point, position)
                    total += coeff * v
                if total:
                    return {var: tuple(Fraction(point[position[name]])
                                       for name in ns)
                            for var, ns in zip(variables, names)}
    return None


def _terms_by_rest(num, names, splitters):
    """num's terms grouped by their rest, as [(generic part, coefficient)]
    lists; a part is its layout and its factors, one per variable of names
    (see _Layout.splitter).  splitters holds one splitter per layout."""
    layout = num.ring
    split = splitters.get(layout)
    if split is None:
        split = splitters[layout] = layout.splitter(names)
    by_rest = {}
    for key, coeff in num.terms.items():
        part, rest = split(key)
        by_rest.setdefault(rest, []).append(((layout, part), coeff))
    return list(by_rest.values())


def _part_value(part, point, position):
    """The value of a generic part at point, the values of the generic
    coordinates at their positions."""
    layout, factors = part
    v = 1
    for f in factors:
        for name, e in layout.fields(f):
            v *= point[position[name]] ** e
    return v


# --- builtin catalog ---------------------------------------------------------------------


class BuiltinIdentity(Record):
    """A named identity with its AST(s) and surface form(s).

    asts has a single element for plain identities; combination entries
    (noncommutative_hom_jordan) carry one AST per conjunct.
    """

    __slots__ = ("name", "asts", "surfaces", "requires_commutative", "note")

    def __init__(self, name, asts, surfaces, requires_commutative=False,
                 note=""):
        self.name = name
        self.asts = asts
        self.surfaces = surfaces
        self.requires_commutative = requires_commutative
        self.note = note

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
        note="left product consequence for anticommuting x, y; evaluate on "
             "bindings with mu(x, y) = -mu(y, x)")
    add("anticommute_right_consequence",
        "mu(mu(z, x), al(y)) + mu(mu(z, y), al(x)) = 0",
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
