import pytest
from hypothesis import given, strategies as st

from stringyhodge import (
    BivariatePoly,
    DiamondError,
    HodgeDiamond,
    curve,
    e_polynomial,
    kunneth,
    projective_space,
    quadric_surface,
    validate,
)
from conftest import diag, pd_diamonds


class TestEPolynomial:
    def test_p1(self):
        assert e_polynomial(projective_space(1)) == BivariatePoly({(0, 0): 1, (1, 1): 1})

    def test_point(self):
        assert e_polynomial(projective_space(0)) == BivariatePoly({(0, 0): 1})

    def test_genus_g_curve(self):
        g = 3
        assert e_polynomial(curve(g)) == BivariatePoly(
            {(0, 0): 1, (1, 0): -g, (0, 1): -g, (1, 1): 1}
        )

    def test_rejects_asymmetric_diamond(self):
        bad = HodgeDiamond(1, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
        with pytest.raises(DiamondError):
            e_polynomial(bad)


class TestKunneth:
    def test_p1_times_p1(self):
        assert kunneth(projective_space(1), projective_space(1)) == diag(1, 2, 1)

    def test_product_with_point(self):
        x = curve(2)
        assert kunneth(x, projective_space(0)) == x

    def test_elliptic_times_p1_against_polynomial_oracle(self):
        # oracle: E-polynomial of the product is the product of E-polynomials
        a, b = curve(1), projective_space(1)
        prod = kunneth(a, b)
        assert prod.hpq(1, 0) == 1
        assert prod.hpq(1, 1) == 2
        assert prod.hpq(2, 1) == 1
        assert e_polynomial(prod) == e_polynomial(a) * e_polynomial(b)

    @given(pd_diamonds(2), pd_diamonds(1))
    def test_kunneth_matches_polynomial_product(self, a, b):
        assert e_polynomial(kunneth(a, b)) == e_polynomial(a) * e_polynomial(b)


class TestBuiltinDiamond:
    def test_projective_plane(self):
        assert projective_space(2) == diag(1, 1, 1)

    def test_burkhardt_exceptional_locus(self):
        d = 45 * quadric_surface()
        assert d == 45 * quadric_surface()
        assert d.hpq(0, 0) == 45

    def test_genus_zero_curve_is_p1(self):
        assert curve(0) == projective_space(1)


class TestValidate:
    def test_p1_clean(self):
        assert validate(projective_space(1), smooth_projective=True) == []

    def test_symmetry_violation(self):
        bad = HodgeDiamond(1, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
        assert any("symmetry" in p for p in validate(bad))

    def test_pd_violation(self):
        bad = HodgeDiamond(2, {(0, 0): 1, (1, 1): 3})
        assert any("duality" in p for p in validate(bad, smooth_projective=True))


class TestProperties:
    @given(pd_diamonds(3, connected=True))
    def test_formal_poincare_duality(self, d):
        e = e_polynomial(d)
        inverted = BivariatePoly({(-p, -q): c for (p, q), c in e.terms.items()})
        scaled = inverted * BivariatePoly({(d.dim, d.dim): 1})
        assert scaled == e

    @given(pd_diamonds(2), pd_diamonds(2))
    def test_disjoint_union_additivity(self, a, b):
        assert e_polynomial(a + b) == e_polynomial(a) + e_polynomial(b)
