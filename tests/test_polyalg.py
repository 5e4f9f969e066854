from hypothesis import example, given, strategies as st

from stringyhodge.polyalg import (
    BivariatePoly,
    DenominatorSpec,
    StringyFunction,
    _over,
    _over_at,
    _spread,
    exact_divide_test,
)
from conftest import cross_multiplied_equal, expand_w, from_w, w_mul


def P(terms):
    return BivariatePoly(terms)


laurent_polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-9, 9),
    max_size=6,
).map(BivariatePoly)

polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-9, 9),
    max_size=6,
).map(BivariatePoly)


class TestPolyMul:
    def test_kunneth_square_of_p1(self):
        p1 = P({(0, 0): 1, (1, 1): 1})
        assert p1 * p1 == P({(0, 0): 1, (1, 1): 2, (2, 2): 1})

    def test_annihilator(self):
        assert not (P({(2, 3): 7}) * BivariatePoly()).terms

    def test_empty_values_print_as_units(self):
        assert str(BivariatePoly()) == "0"
        assert str(DenominatorSpec()) == "1"

    def test_difference_of_squares(self):
        a = P({(0, 0): 1, (1, 0): -1})
        b = P({(0, 0): 1, (1, 0): 1})
        assert a * b == P({(0, 0): 1, (2, 0): -1})

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def series_expand_factor(a, bound):
    """Expansion of (w - w^(a+1)) / (w^(a+1) - 1) to w^bound, as {e: c}: the
    series of a one-factor StringyFunction, whose w^e is u^e v^e with p+q = 2e."""
    m = a + 1
    numerator = P({(1, 1): 1}) + P({(m, m): -1})  # zero for a = 0
    f = StringyFunction(numerator, DenominatorSpec((m,) if a else ()))
    return {p: c for (p, q), c in sorted(f.series_coefficients(2 * bound).items())}


def w_terms(p, bound):
    """The diagonal polynomial p as {e: c} for the terms w^e with e <= bound."""
    assert all(a == b for a, b in p.terms)
    return {a: c for (a, b), c in p.terms.items() if a <= bound}


class TestSeriesExpandFactor:
    def test_a1_geometric(self):
        # (w - w^2)/(w^2 - 1) = -w/(1 + w)
        assert series_expand_factor(1, 4) == {1: -1, 2: 1, 3: -1, 4: 1}

    def test_a0_vanishes(self):
        assert series_expand_factor(0, 5) == {}

    def test_a2_against_cross_multiplication(self):
        # frozen via the oracle below: candidate * (w^3 - 1) == w - w^3 mod w^6
        assert series_expand_factor(2, 5) == {1: -1, 3: 1, 4: -1}

    @given(st.integers(0, 8), st.integers(0, 32))
    def test_recovers_numerator_mod_truncation(self, a, bound):
        series = P({(e, e): c for e, c in series_expand_factor(a, bound).items()})
        product = series * P({(a + 1, a + 1): 1, (0, 0): -1})
        truncated = w_terms(product, bound)
        expected = w_terms(P({(1, 1): 1}) * P({(0, 0): 1, (a, a): -1}), bound)
        if a == 0:
            expected = {}
        assert truncated == expected


stringy_functions = st.builds(
    StringyFunction,
    polys,
    st.lists(st.integers(2, 5), max_size=3).map(lambda m: DenominatorSpec(tuple(m))),
)

ZERO_OVER_W2 = StringyFunction(BivariatePoly(), DenominatorSpec((2,)))


def lifted(f, m):
    """f written over one more factor: numerator and denominator times w^m - 1."""
    extra = DenominatorSpec((m,))
    return StringyFunction(
        f.numerator * from_w(expand_w(extra)), DenominatorSpec(f.denominator.factors + (m,))
    )


class TestEqualsOverUnequalDenominators:
    """Every simplex compare meets equal denominators; these do not."""

    @example(ZERO_OVER_W2, 2)
    @example(ZERO_OVER_W2, 3)
    @given(stringy_functions, st.integers(2, 5))
    def test_lifted_by_an_extra_factor_is_equal(self, f, m):
        g = lifted(f, m)
        assert f.denominator != g.denominator
        assert f.equals(g) and g.equals(f)
        assert cross_multiplied_equal(f, g)

    @example(ZERO_OVER_W2, 3, (0, 0), 1)
    @given(
        stringy_functions,
        st.integers(2, 5),
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        st.sampled_from([-2, -1, 1, 2]),
    )
    def test_one_perturbed_coefficient_is_unequal(self, f, m, pq, delta):
        g = lifted(f, m)
        g = StringyFunction(g.numerator + P({pq: delta}), g.denominator)
        assert not f.equals(g) and not g.equals(f)
        assert not cross_multiplied_equal(f, g)

    @example(ZERO_OVER_W2, StringyFunction(BivariatePoly(), DenominatorSpec((3, 3))))
    @given(stringy_functions, stringy_functions)
    def test_verdict_agrees_with_cross_multiplication(self, f, g):
        assert f.equals(g) == g.equals(f) == cross_multiplied_equal(f, g)


class TestSlices:
    def test_diagonal_polynomial(self):
        p = P({(0, 0): 1, (1, 1): 2, (2, 2): 1})
        assert StringyFunction(p)._slices == {(0, 0): [1, 2, 1]}

    def test_off_diagonal_split(self):
        p = P({(1, 0): 1, (0, 1): 1})
        assert StringyFunction(p)._slices == {(1, 0): [1], (0, 1): [1]}

    def test_single_monomial(self):
        assert StringyFunction(P({(2, 1): 1}))._slices == {(2, 1): [1]}

    @given(laurent_polys)
    def test_round_trip(self, p):
        rows = StringyFunction(p)._slices
        assert _spread(rows) == p
        # one row per diagonal, trimmed at both ends
        assert len(rows) == len({a - b for a, b in p.terms})
        assert all(row[0] and row[-1] for row in rows.values())


class TestOver:
    @example([1, 2, 3], [1000, 2, 40], 5)
    @given(st.lists(st.integers(-9, 9), max_size=12),
           st.lists(st.sampled_from([2, 3, 5, 7, 40, 1000]), max_size=4),
           st.integers(0, 20))
    def test_series_times_the_denominator_is_the_row(self, row, factors, length):
        # in any order, and whether a factor reaches past `length` or not
        series = _over(row, factors, length)
        assert len(series) == length
        product = w_mul(dict(enumerate(series)), expand_w(DenominatorSpec(tuple(factors))),
                        bound=length - 1)
        assert product == {k: c for k, c in enumerate(row[:length]) if c}


class TestOneCoefficient:
    @given(st.lists(st.integers(-9, 9), max_size=12),
           st.lists(st.sampled_from([2, 3, 5, 40, 101, 1000]), max_size=4).map(sorted),
           st.one_of(st.integers(0, 40), st.integers(0, 3000)))
    def test_over_at_is_one_entry_of_over(self, row, factors, k):
        assert _over_at(row, factors, k) == _over(row, factors, k + 1)[k]

    @given(stringy_functions, st.integers(-2, 8), st.integers(-2, 8))
    def test_coefficient_is_one_entry_of_the_expansion(self, f, p, q):
        assert f._coefficient(p, q) == f.series_coefficients(p + q).get((p, q), 0)


class TestExactDivideTest:
    def test_self_division(self):
        f = StringyFunction(P({(2, 2): 1, (0, 0): -1}), DenominatorSpec((2,)))
        assert exact_divide_test(f) == BivariatePoly({(0, 0): 1})

    def test_univariate_long_division_oracle(self):
        # oracle: w - w^3 = -w * (w^2 - 1)
        f = StringyFunction(P({(1, 1): 1, (3, 3): -1}), DenominatorSpec((2,)))
        assert exact_divide_test(f) == P({(1, 1): -1})

    def test_degree_obstruction(self):
        f = StringyFunction(P({(1, 1): 1}), DenominatorSpec((2,)))
        assert exact_divide_test(f) is None

    def test_each_factor_divides_yet_not_their_product(self):
        # (w^3 - 1)(w + 2) has residue sums 0 mod 3, and no quotient over (w^3 - 1)^2
        f = StringyFunction(P({(4, 4): 1, (3, 3): 2, (1, 1): -1, (0, 0): -2}),
                            DenominatorSpec((3, 3)))
        assert exact_divide_test(f) is None
        assert exact_divide_test(StringyFunction(f.numerator, DenominatorSpec((3,)))) == P(
            {(1, 1): 1, (0, 0): 2})

    @given(polys, st.lists(st.integers(2, 5), max_size=3))
    def test_quotient_times_denominator_is_numerator(self, quotient, factors):
        den = DenominatorSpec(tuple(factors))
        f = StringyFunction(quotient * from_w(expand_w(den)), den)
        assert exact_divide_test(f) == quotient

    @example(P({(0, 0): 1, (2, 2): -2}), [2, 2])  # series 1 + 0w + 0w^2, yet not divisible
    @given(polys, st.lists(st.integers(2, 5), min_size=1, max_size=3))
    def test_none_iff_no_exact_quotient(self, numerator, factors):
        den = DenominatorSpec(tuple(factors))
        f = StringyFunction(numerator, den)
        result = exact_divide_test(f)
        if result is not None:
            assert result * from_w(expand_w(den)) == numerator


class TestDenominatorSpec:
    def test_rejects_factor_one(self):
        import pytest

        with pytest.raises(ValueError):
            DenominatorSpec((1,))

    def test_series_inverse_cross_check(self):
        # series(1/D) * D == 1 mod w^11, with BivariatePoly.__mul__ as the oracle
        den = DenominatorSpec((2, 3))
        inv = StringyFunction(BivariatePoly({(0, 0): 1}), den).series_coefficients(20)
        product = P(inv) * from_w(expand_w(den))
        assert w_terms(product, 10) == {0: 1}
