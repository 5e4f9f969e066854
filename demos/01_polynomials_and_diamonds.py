"""Exact bivariate arithmetic and Hodge diamonds: the building blocks.

Everything in this library runs on integer-coefficient Laurent polynomials
in u and v, plus rational functions whose denominator is a product of
factors (uv)^m - 1.  This script walks through the basic objects.
"""

from stringyhodge import (
    BivariatePoly,
    DenominatorSpec,
    StringyFunction,
    curve,
    e_polynomial,
    exact_divide_test,
    kunneth,
    projective_space,
    quadric_surface,
)

# The E-polynomial of P^1 is 1 + uv; squaring it gives the quadric surface.
p1 = e_polynomial(projective_space(1))
print("E(P^1)        =", p1)
print("E(P^1)^2      =", p1 * p1)
print("E(P^1 x P^1)  =", e_polynomial(quadric_surface()))

# Kunneth on diamonds agrees with multiplication of E-polynomials.
elliptic = curve(1)
product = kunneth(elliptic, projective_space(1))
assert e_polynomial(product) == e_polynomial(elliptic) * p1
print("\nelliptic curve x P^1 diamond:", dict(product.h))

# The discrepancy factor (w - w^{a+1})/(w^{a+1} - 1) expands at the origin
# with integer coefficients; discrepancy 0 kills the factor entirely.
# Terms w^e = u^e v^e up to e = 6 are those with p + q <= 12.
for a in (0, 1, 2):
    series = {}
    if a:
        m = a + 1
        factor = StringyFunction(BivariatePoly({(1, 1): 1, (m, m): -1}), DenominatorSpec((m,)))
        series = {p: c for (p, q), c in sorted(factor.series_coefficients(12).items())}
    print(f"factor a={a} expanded to degree 6:", series)

# Rational functions stay factored; polynomiality is decided by exact
# division along diagonals, never by GCDs.
f = StringyFunction(BivariatePoly({(1, 1): 1, (3, 3): -1}), DenominatorSpec((2,)))
print("\n(w - w^3)/(w^2 - 1) =", exact_divide_test(f))
g = StringyFunction(BivariatePoly({(1, 1): 1}), DenominatorSpec((2,)))
print("w/(w^2 - 1) polynomial?", exact_divide_test(g))
