"""Tour of the exact scalar field Q(a, b, ...).

Every coefficient in this package is a quotient of multivariate polynomials
with exact rational coefficients, kept in canonical form (coprime, monic
denominator).  No floating point anywhere.
"""

from fractions import Fraction

from homalgebra import Scalar, normalize
from homalgebra.scalars import Polynomial

a, b = Scalar.var("a"), Scalar.var("b")

print("== canonical forms ==")
print("a^2*b / (a*b)      =", (a * a * b) / (a * b))
print("(a-b)*b            =", (a - b) * b)
print("a4*a3/a2           =", Scalar.var("a4") * Scalar.var("a3") / Scalar.var("a2"))
print("1/2 * b            =", Scalar.from_fraction(Fraction(1, 2)) * b)

print()
print("== common factors cancel no matter how they arrived ==")
g = Polynomial.var("a") + Polynomial.var("b")
messy = normalize((a * a - a).num * g, (a).num * g)
clean = normalize((a * a - a).num, a.num)
print("((a^2-a)(a+b)) / (a(a+b)) =", messy, "   same as (a^2-a)/a =", clean)
assert messy == clean

print()
print("== field arithmetic ==")
x = (a - b) / (a + b)
y = b / a
print("x =", x, "   y =", y)
print("x + y =", x + y)
print("x * y =", x * y)
print("x / y =", x / y)

print()
print("== specialization to rationals ==")
defect = (a - b) * b
print("(a-b)*b at a=1, b=1 :", defect.specialize({"a": 1, "b": 1}))
print("(a-b)*b at a=2, b=1 :", defect.specialize({"a": 2, "b": 1}))
print("a^2 - a  at a=3     :", (a * a - a).specialize({"a": 3}))

print()
print("== denominators remember their nonzero assumptions ==")
s = Scalar.var("a4") * Scalar.var("a3") / (Scalar.var("a2") ** 2)
print("scalar:", s, "   defined where:", ", ".join(s.nonzero_constraints()))
try:
    s.specialize({"a2": 0, "a3": 1, "a4": 1})
except Exception as exc:
    print("specializing at a2=0 raises:", type(exc).__name__)
