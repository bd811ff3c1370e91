"""The identity language and the two checking strategies.

Identities are equations over variables, mu(...) and al(...) (powers via
al^k), normalized to lhs - rhs = 0.  Every check evaluates once on generic
elements, whose coordinates are fresh indeterminates, and is exact
polynomial zero-testing.  Multilinear identities may also report a failure
at a basis tuple instead of as a generic residual.
"""

from homalgebra import catalog
from homalgebra.identities import check, evaluate, is_multilinear
from homalgebra.parser import parse_identity

oct_id = catalog.get("octonions").algebra.with_identity_alpha()

print("== parsing ==")
left_alt = parse_identity("mu(al(x), mu(x, y)) = mu(mu(x, x), al(y))")
print("variables:", left_alt.vars)
print("multilinear?", is_multilinear(left_alt))

moufang_ish = parse_identity(
    "mu(al(x), mu(y, z)) - mu(mu(x, y), al(z)) "
    "+ mu(al(y), mu(x, z)) - mu(mu(y, x), al(z)) = 0")
print("linearized form multilinear?", is_multilinear(moufang_ish))

print()
print("== strategies agree on multilinear identities ==")
print("basis:  ", check(oct_id, moufang_ish, "basis").verdict)
print("generic:", check(oct_id, moufang_ish, "generic").verdict)

print()
print("== nonlinear identities need generic elements ==")
print("left alternativity, generic:", check(oct_id, left_alt).verdict)
try:
    check(oct_id, left_alt, "basis")
except Exception as exc:
    print("basis strategy refused:", type(exc).__name__)

print()
print("== a failing identity comes back with evidence ==")
commut = parse_identity("mu(x, y) = mu(y, x)")
r = check(oct_id, commut)
print("octonions commutative?", r.verdict)
print("failing coordinate:", r.witness.coordinate)
if r.witness.specialization:
    for var, coords in sorted(r.witness.specialization.items()):
        print("  %s = (%s)" % (var, ", ".join(str(c) for c in coords)))

print()
print("== evaluating at chosen elements ==")
ast = parse_identity("mu(x, y) + mu(y, x) = 0")
e1, e2 = oct_id.basis_vector("e1"), oct_id.basis_vector("e2")
value = evaluate(oct_id, ast, {"x": e1, "y": e2})
print("e1, e2 anticommute:", value.is_zero())
