import pytest
from hypothesis import given, settings

from stringyhodge import (
    BivariatePoly,
    DenominatorSpec,
    DescriptorError,
    HodgeDiamond,
    ResolutionDescriptor,
    StringyFunction,
    a_pq,
    check_pd_identity,
    check_polynomial_consequences,
    check_symmetry,
    closed_form_h,
    crepant_compare,
    e_polynomial,
    exact_divide_test,
    projective_space,
    quadric_surface,
    stringy_e,
    stringy_hodge_table,
)
from conftest import descriptors, diag


@pytest.fixture
def smooth():
    return ResolutionDescriptor(3, (), {(): projective_space(3)}, "smooth")


@pytest.fixture
def node():
    # node threefold: blow-up with exceptional quadric of discrepancy 1
    return ResolutionDescriptor(
        3, (("E", 1),), {(): diag(1, 3, 3, 1), ("E",): quadric_surface()}, "node"
    )


@pytest.fixture
def node_small():
    return ResolutionDescriptor(3, (), {(): diag(1, 2, 2, 1)}, "node, small resolution")


@pytest.fixture
def burkhardt():
    return ResolutionDescriptor(
        3,
        (("E", 1),),
        {(): diag(1, 61, 61, 1), ("E",): 45 * quadric_surface()},
        "Burkhardt quartic",
    )


class TestStringyE:
    def test_smooth_case(self, smooth):
        f = stringy_e(smooth)
        assert f.denominator == DenominatorSpec()
        assert f.numerator == e_polynomial(projective_space(3))

    def test_node_threefold(self, node):
        # oracle: (1+w)^2 * (w - w^2)/(w^2 - 1) = -w - w^2
        expected = StringyFunction(
            e_polynomial(diag(1, 3, 3, 1)) + BivariatePoly({(1, 1): -1, (2, 2): -1})
        )
        assert stringy_e(node).equals(expected)

    def test_burkhardt_h11(self, burkhardt):
        assert closed_form_h(burkhardt, 1, 1) == 16

    def test_rejects_invalid_descriptor(self):
        missing_y = ResolutionDescriptor(2, (), {}, "broken")
        with pytest.raises(DescriptorError, match="missing Y stratum"):
            stringy_e(missing_y)

    def test_validate_lists_every_problem_in_order(self):
        # stratum by stratum, in insertion order; each stratum's key checks,
        # diamond checks, then its missing faces in `combinations` order,
        # which drops the last id first
        d = ResolutionDescriptor(
            3,
            (("A", 1), ("B", 1), ("C", 2)),
            {
                (): diag(1, 2, 2, 1),
                ("A",): diag(1, 1, 1),
                ("C",): diag(1, 1),
                ("B", "A"): diag(1, 1),
                ("A", "A"): diag(1, 1),
                ("A", "Z"): diag(1, 1),
                ("A", "C"): HodgeDiamond(1, {(0, 0): 1, (1, 0): -1, (1, 1): 1}),
                ("A", "B", "C"): diag(1),
            },
        )
        assert d.validate() == [
            "stratum ('C',) has dimension 1, expected 2",
            "stratum key ('B', 'A') is not sorted",
            "downward closure broken: ('B', 'A') present but ('B',) missing",
            "stratum key ('A', 'A') repeats a component",
            "stratum ('A', 'Z') names unknown components ['Z']",
            "downward closure broken: ('A', 'Z') present but ('Z',) missing",
            "stratum ('A', 'C'): conjugation symmetry broken: h^{1,0} = -1 but h^{0,1} = 0",
            "stratum ('A', 'C'): negative entry h^{1,0} = -1",
            "downward closure broken: ('A', 'B', 'C') present but ('A', 'B') missing",
            "downward closure broken: ('A', 'B', 'C') present but ('B', 'C') missing",
        ]

    def test_discrepancy_zero_subsets_vanish(self, node):
        # adding a crepant component changes nothing
        with_crepant = ResolutionDescriptor(
            3,
            (("E", 1), ("C", 0)),
            {(): diag(1, 3, 3, 1), ("E",): quadric_surface(), ("C",): quadric_surface()},
            "node + crepant divisor",
        )
        assert stringy_e(with_crepant).equals(stringy_e(node))


class TestStringyHodgeTable:
    def test_smooth_recovers_hodge_numbers(self, smooth):
        report = stringy_hodge_table(smooth)
        for p in range(4):
            assert report.h_st(p, p) == 1
        assert report.polynomial is not None

    def test_node_h11_drops_by_one(self, node):
        report = stringy_hodge_table(node)
        assert report.h_st(1, 1) == 3 - 1

    def test_burkhardt_times_p1_h22(self, burkhardt):
        from stringyhodge import product_stringy

        x = product_stringy(burkhardt, projective_space(1))
        assert stringy_hodge_table(x).h_st(2, 2) == 32

    def test_polynomial_agrees_with_expansion(self, node):
        report = stringy_hodge_table(node)
        assert report.polynomial is not None
        for (p, q), b in report.coefficients.items():
            assert report.polynomial.coeff(p, q) == b


class TestSymmetry:
    def test_symmetric_strata(self, node):
        assert check_symmetry(node)

    def test_broken_diamond_negative_control(self):
        # validation bypassed on purpose: asymmetric ambient diamond
        broken = ResolutionDescriptor(
            3,
            (("E", 1),),
            {
                (): HodgeDiamond(3, {(0, 0): 1, (1, 0): 1, (3, 3): 1}),
                ("E",): quadric_surface(),
            },
            "broken",
        )
        assert not check_symmetry(broken)

    def test_node_explicit(self, node):
        assert check_symmetry(node)


class TestPdIdentity:
    def test_smooth(self, smooth):
        assert check_pd_identity(smooth) is True

    def test_node(self, node):
        assert check_pd_identity(node) is True

    def test_inconclusive_when_strata_fail_pd(self):
        no_pd = ResolutionDescriptor(
            2,
            (("E", 1),),
            {
                (): HodgeDiamond(2, {(0, 0): 1, (1, 1): 3, (2, 2): 2}),
                ("E",): projective_space(1),
            },
            "strata without duality",
        )
        assert check_pd_identity(no_pd) is None

    @settings(max_examples=60)
    @given(descriptors())
    def test_pd_holds_on_random_pd_consistent_input(self, d):
        assert check_pd_identity(d) is True


class TestPolynomialConsequences:
    def test_smooth(self, smooth):
        result = check_polynomial_consequences(smooth)
        assert result["applicable"] and result["passed"]

    def test_node_polynomial(self, node):
        result = check_polynomial_consequences(node)
        assert result["applicable"] and result["passed"]

    def test_inapplicable_for_non_polynomial(self):
        non_poly = ResolutionDescriptor(
            2,
            (("E", 2),),
            {(): diag(1, 2, 1), ("E",): projective_space(1)},
            "non-polynomial surface",
        )
        assert exact_divide_test(stringy_e(non_poly)) is None
        assert check_polynomial_consequences(non_poly) == {"applicable": False}


class TestClosedForms:
    def test_burkhardt(self, burkhardt):
        assert closed_form_h(burkhardt, 1, 1) == 16

    def test_smooth_any_pq(self, smooth):
        for p in range(4):
            for q in range(3):
                assert closed_form_h(smooth, p, q) == projective_space(3).hpq(p, q)

    def test_node(self, node):
        assert closed_form_h(node, 1, 1) == 3 - 1

    def test_rejects_q3(self, smooth):
        with pytest.raises(ValueError):
            closed_form_h(smooth, 1, 3)

    def test_rejects_non_terminal_for_q1(self):
        crepant = ResolutionDescriptor(
            3, (("E", 0),), {(): diag(1, 3, 3, 1), ("E",): quadric_surface()}, "crepant"
        )
        with pytest.raises(DescriptorError):
            closed_form_h(crepant, 1, 1)


class TestApq:
    def test_burkhardt(self, burkhardt):
        assert a_pq(burkhardt, 2, 2) == -29

    def test_burkhardt_times_p1(self, burkhardt):
        from stringyhodge import product_stringy

        x = product_stringy(burkhardt, projective_space(1))
        assert a_pq(x, 2, 2) == -13

    def test_smooth(self, smooth):
        assert a_pq(smooth, 2, 2) == projective_space(3).hpq(2, 2)


class TestH22Fourfold:
    def test_burkhardt_times_p1(self, burkhardt):
        from stringyhodge import h22st_fourfold, product_stringy

        x = product_stringy(burkhardt, projective_space(1))
        assert h22st_fourfold(x) == 32

    def test_smooth_fourfold(self):
        from stringyhodge import h22st_fourfold

        smooth4 = ResolutionDescriptor(4, (), {(): projective_space(4)}, "P4")
        assert h22st_fourfold(smooth4) == 1

    def test_discrepancy_two_only(self):
        from stringyhodge import h22st_fourfold

        d = ResolutionDescriptor(
            4,
            (("E", 2),),
            {(): diag(1, 1, 1, 1, 1), ("E",): diag(1, 5, 5, 1)},
            "one a=2 divisor",
        )
        assert h22st_fourfold(d) == a_pq(d, 2, 2) == -4

    def test_rejects_threefold(self, node):
        from stringyhodge import h22st_fourfold

        with pytest.raises(DescriptorError):
            h22st_fourfold(node)


class TestCrepantCompare:
    def test_node_resolutions_agree(self, node, node_small):
        assert crepant_compare(node, node_small)

    def test_self_comparison(self, node):
        assert crepant_compare(node, node)

    def test_mislabeled_discrepancy_detected(self, node_small):
        wrong = ResolutionDescriptor(
            3, (("E", 2),), {(): diag(1, 3, 3, 1), ("E",): quadric_surface()}, "wrong"
        )
        assert not crepant_compare(wrong, node_small)

    def test_dimension_mismatch(self, node):
        p2 = ResolutionDescriptor(2, (), {(): projective_space(2)}, "P2")
        with pytest.raises(DescriptorError):
            crepant_compare(node, p2)


class TestClosedFormExpansionEquivalence:
    @settings(max_examples=60)
    @given(descriptors(min_discrepancy=1))
    def test_q1_q2_closed_forms_match_series(self, d):
        report = stringy_hodge_table(d, bound=2 * d.n + 2)
        for p in range(2 * d.n + 1):
            assert report.h_st(p, 1) == closed_form_h(d, p, 1)
            assert report.h_st(p, 2) == closed_form_h(d, p, 2)


def _level_h(d, k, p, q):
    return sum(s.hpq(p, q) for J, s in d.strata.items() if len(J) == k)


def explicit_closed_form(d, p, q):
    """The q <= 2 closed forms written out term by term."""
    if q == 0:
        return _level_h(d, 0, p, 0)
    if q == 1:
        return _level_h(d, 0, p, 1) - _level_h(d, 1, p - 1, 0)
    return (
        _level_h(d, 0, p, 2)
        - _level_h(d, 1, p - 1, 1)
        + _level_h(d, 2, p - 2, 0)
        + sum(d.strata[(cid,)].hpq(p - 2, 0)
              for cid, a in d.components if a == 1 and (cid,) in d.strata)
    )


class TestOneRuleClosedForms:
    @pytest.mark.parametrize("q", [0, 1, 2])
    @settings(max_examples=60)
    @given(d=descriptors(min_discrepancy=1))
    def test_matches_explicit_formula(self, q, d):
        for p in range(-1, 2 * d.n + 3):
            assert closed_form_h(d, p, q) == explicit_closed_form(d, p, q)

    @settings(max_examples=40)
    @given(descriptors(min_discrepancy=1).filter(lambda d: d.n == 4))
    def test_fourfold_h22_is_the_p2_case(self, d):
        from stringyhodge import h22st_fourfold

        assert h22st_fourfold(d) == a_pq(d, 2, 2) + d.discrepancy_one_sum(2)
        assert h22st_fourfold(d) == explicit_closed_form(d, 2, 2)


class TestAdditivity:
    @settings(max_examples=40)
    @given(descriptors())
    def test_summing_strata_sums_e_functions(self, d):
        # identical component sets and discrepancies, entrywise-summed strata
        doubled = ResolutionDescriptor(
            d.n, d.components, {J: s + s for J, s in d.strata.items()}, "doubled"
        )
        f = stringy_e(d)
        assert stringy_e(doubled).equals(StringyFunction(f.numerator + f.numerator, f.denominator))
