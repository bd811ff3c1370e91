"""Shared helpers: random exact polynomials/scalars and random associative
algebras with a genuine endomorphism, for the property suites."""

import random
from fractions import Fraction

import pytest

from homalgebra.algebra import AlgebraSpec, LinMap
from homalgebra.scalars import Monomial, Polynomial, Scalar


VARS = ("a", "b", "c")


def random_polynomial(rng, max_terms=3, max_degree=2, variables=VARS,
                      max_coeff=4):
    # small by default: most polynomials this package manipulates live at
    # this scale (a handful of parameters, low degree)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        for v in variables:
            e = rng.randint(0, max_degree)
            if e and rng.random() < 0.6:
                exps[v] = e
        coeff = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 3))
        mono = Monomial(exps)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(terms)


def random_nonzero_polynomial(rng, **kw):
    while True:
        p = random_polynomial(rng, **kw)
        if not p.is_zero():
            return p


def random_scalar(rng):
    num = random_polynomial(rng, variables=("a", "b"))
    den = random_nonzero_polynomial(rng, max_terms=2, max_degree=1,
                                    variables=("a", "b"))
    return Scalar(num, den)


def random_point(rng, variables=VARS):
    return {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for v in variables}


def random_associative_with_endo(rng):
    """A random associative table over Q and an algebra endomorphism of it.

    Families: truncated polynomial algebras Q[x]/(x^n) with x -> t*x,
    cyclic group algebras Q[Z_n] with the map induced by m -> c*m, and zero
    algebras with an arbitrary linear map.  A random basis relabeling is
    applied on top; associativity and the endomorphism property survive it.
    """
    kind = rng.choice(("truncated", "group", "zero"))
    dim = rng.randint(2, 4)
    if kind == "truncated":
        mu = [(i, j, i + j, 1) for i in range(dim) for j in range(dim)
              if i + j < dim]
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        f = LinMap.diagonal([Scalar.from_fraction(t ** i) for i in range(dim)])
    elif kind == "group":
        mu = [(i, j, (i + j) % dim, 1) for i in range(dim) for j in range(dim)]
        c = rng.randrange(dim)
        rows = [[Scalar.zero()] * dim for _ in range(dim)]
        for j in range(dim):
            rows[(c * j) % dim][j] = Scalar.one()
        f = LinMap(rows)
    else:
        mu = []
        f = LinMap([[Scalar.from_fraction(rng.randint(-2, 2))
                     for _ in range(dim)] for _ in range(dim)])
    perm = list(range(dim))
    rng.shuffle(perm)
    mu = [(perm[i], perm[j], perm[k], coeff) for i, j, k, coeff in mu]
    rows = [[Scalar.zero()] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            rows[perm[i]][perm[j]] = f.rows[i][j]
    f = LinMap(rows)
    algebra = AlgebraSpec("random_assoc", dim,
                          ["b%d" % i for i in range(dim)], mu=mu)
    return algebra, f


@pytest.fixture
def rng():
    return random.Random(20240817)
