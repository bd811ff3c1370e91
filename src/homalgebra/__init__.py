"""Exact kernel for Hom-associative, Hom-alternative and Hom-Jordan algebras.

Algebras are given by sparse structure constants over the field of rational
functions Q(p1, ..., pm) in declared parameters.  The package verifies
twisted identities symbolically (exact polynomial zero-testing on generic
elements), constructs Yau twists, untwists, polarizations and opposites,
checks endomorphisms/morphisms/subalgebras/units, and ships the standard
example tables (3-dimensional Hom-associative family, the two 4-dimensional
alternative non-associative algebras with their endomorphism families,
octonions and their diagonal scalings, the polarized Jordan table).
"""

from .errors import (
    ArityError,
    DimensionMismatch,
    DivisionByZero,
    HomAlgebraError,
    MissingTwistMap,
    NotEndomorphism,
    NotMultilinear,
    ParseError,
    SingularMap,
    SpecializedDenominatorZero,
    UnboundParameter,
    UnboundVariable,
    UndeclaredParameter,
    UnknownIdentity,
    UnknownKey,
    ValidationError,
    ZeroDenominator,
)
from .scalars import Monomial, Polynomial, Scalar, normalize
from .algebra import (
    AlgebraSpec,
    CheckReport,
    LinMap,
    Param,
    Vector,
    Witness,
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
from .identities import (
    Alpha,
    BuiltinIdentity,
    IdentityAST,
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
    identity_to_text,
    is_multilinear,
)
from .parser import parse_identity, parse_scalar_expr
from . import catalog
from .fileio import load, loads, save, saves

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
