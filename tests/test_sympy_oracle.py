"""Sympy as an independent oracle for the series kernel of polyalg.

E_st is built in sympy straight from the strata by Batyrev's formula, and a
StringyFunction straight from its numerator and factors.  sympy's `cancel`
decides polynomiality and gives the quotient.  The coefficients b_{p,q} come
from the expansion of E(tu, tv) in t, where p + q is the power of t: the
numerator times sympy's power-series inverse of the denominator (its
`rs_series_inversion`, much faster than `series` on the rational function).
"""

import random

import pytest
import sympy as sp
from sympy.polys.ring_series import rs_series_inversion
from sympy.polys.rings import ring
from hypothesis import example, given, settings, strategies as st

from stringyhodge import (
    BivariatePoly,
    DenominatorSpec,
    StringyFunction,
    exact_divide_test,
    load_bundle,
    stringy_e,
)
from conftest import expand_w, from_w, random_descriptor

u, v, t = sp.symbols("u v t")
w = u * v
R, T, _, _ = ring([t, u, v], sp.QQ)


def sympy_e_st(d):
    """sum_J E(D_J) prod_{j in J} (w - w^{a_j+1}) / (w^{a_j+1} - 1)."""
    a = dict(d.components)
    total = 0
    for subset, diamond in d.strata.items():
        term = sum((-1) ** (p + q) * h * u**p * v**q for (p, q), h in diamond.h.items())
        for cid in subset:
            m = a[cid] + 1
            term *= (w - w**m) / (w**m - 1)
        total += term
    return total


def sympy_function(f):
    """(numerator, denominator) of a StringyFunction as sympy expressions."""
    numerator = sum(c * u**p * v**q for (p, q), c in f.numerator.terms.items())
    return numerator, sp.Mul(*(w**m - 1 for m in f.denominator.factors))


def terms(expr):
    """{(p, q): c} of a Laurent polynomial in u, v; zero coefficients dropped.

    Poly(0).terms() yields ((0, 0), 0), which must not count as a term.
    """
    num, den = sp.fraction(sp.together(sp.expand(expr)))
    (((i, j), c0),) = sp.Poly(den, u, v).terms()  # a monomial
    out = {}
    for (p, q), c in sp.Poly(num, u, v).terms():
        if c != 0:
            out[(p - i, q - j)] = int(c / c0)
    return out


def sympy_quotient(expr):
    """The Laurent polynomial equal to expr, or None if it is not one."""
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    if len(sp.Poly(den, u, v).terms()) != 1:
        return None
    return BivariatePoly(terms(num / den))


def sympy_series(numerator, denominator, bound):
    """b_{p,q} for p + q <= bound, from the expansion of E(tu, tv) in t.

    The numerator may be a Laurent polynomial; the denominator is a
    polynomial with a nonzero constant term.
    """
    num = terms(numerator)
    low = min((p + q for p, q in num), default=0)
    if bound < low:
        return {}
    scaled = sp.expand(denominator.subs({u: t * u, v: t * v}, simultaneous=True))
    inverse = rs_series_inversion(R.from_expr(scaled), T, bound - low + 1)
    out = {}
    for (p, q), c in num.items():
        for (k, a, b), ci in inverse.items():
            if p + q + k <= bound:
                out[(p + a, q + b)] = out.get((p + a, q + b), 0) + c * int(ci)
    return {pq: c for pq, c in out.items() if c != 0}


def assert_agrees(f, numerator, denominator, bound):
    assert exact_divide_test(f) == sympy_quotient(numerator / denominator)
    assert f.series_coefficients(bound) == sympy_series(numerator, denominator, bound)


@pytest.mark.parametrize("seed", range(8))
def test_descriptor_against_batyrev_formula_in_sympy(seed):
    d = random_descriptor(random.Random(seed), max_dim=3, max_components=3)
    assert_agrees(stringy_e(d), *sp.fraction(sp.together(sympy_e_st(d))), 2 * d.n)


@pytest.mark.parametrize(
    "name", ["node3fold_blowup.json", "node3fold_wrong_discrepancy.json", "burkhardt_x0.json"]
)
def test_corpus_against_batyrev_formula_in_sympy(name, corpus):
    # polynomial over a nontrivial denominator, and not a polynomial
    d = load_bundle(str(corpus / name)).descriptor
    assert_agrees(stringy_e(d), *sp.fraction(sp.together(sympy_e_st(d))), 2 * d.n)


laurent_numerators = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-4, 4), max_size=4
).map(BivariatePoly)
denominators = st.lists(st.integers(2, 4), max_size=3).map(lambda m: DenominatorSpec(tuple(m)))


@settings(max_examples=60, deadline=None)
@example(BivariatePoly(), DenominatorSpec((2, 3)), 4)
@example(BivariatePoly({(-5, -5): 1}), DenominatorSpec((2,)), 4)
@example(BivariatePoly({(1, 1): 1, (3, 3): -1}), DenominatorSpec((2,)), 6)
@example(BivariatePoly({(3, 3): 1, (5, 5): 1}), DenominatorSpec((2,)), 2)  # all above the bound
@example(BivariatePoly({(0, 0): 1, (2, 2): -2}), DenominatorSpec((2, 2)), 4)  # degree below the denominator's
@example(BivariatePoly({(-2, 0): 1, (0, -2): 1, (1, 1): -1}), DenominatorSpec((2, 2)), 3)
@given(laurent_numerators, denominators, st.integers(-2, 8))
def test_stringy_function_against_sympy(numerator, denominator, bound):
    f = StringyFunction(numerator, denominator)
    assert_agrees(f, *sympy_function(f), bound)


@settings(max_examples=20, deadline=None)
@given(laurent_numerators, denominators.filter(lambda d: d.factors))
def test_exact_multiples_divide_in_sympy_too(quotient, denominator):
    f = StringyFunction(quotient * from_w(expand_w(denominator)), denominator)
    numerator, denominator = sympy_function(f)
    assert exact_divide_test(f) == sympy_quotient(numerator / denominator) == quotient
