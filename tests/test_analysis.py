import json

import pytest
from hypothesis import given, settings

from stringyhodge import (
    CrossCheckError,
    DescriptorError,
    DiamondError,
    ExceptionalFiberDescriptor,
    FiberComponent,
    HodgeDiamond,
    ResolutionDescriptor,
    StringyFunction,
    conjecture_report,
    defect_bound_check,
    e_polynomial,
    hodge,
    local_defect,
    product_stringy,
    projective_space,
    quadric_surface,
    stringy_e,
    stringy_hodge_table,
    threefold_h22_minus_h11,
)
from stringyhodge.cli import main
from conftest import descriptors, diag

Q = quadric_surface()


@pytest.fixture
def node_fiber():
    return ExceptionalFiberDescriptor("x1", (FiberComponent("F1", Q, 1),), {})


@pytest.fixture
def p2_fiber():
    return ExceptionalFiberDescriptor("x1", (FiberComponent("F1", projective_space(2), 2),), {})


@pytest.fixture
def burkhardt():
    return ResolutionDescriptor(
        3,
        (("E", 1),),
        {(): diag(1, 61, 61, 1), ("E",): 45 * Q},
        "Burkhardt quartic",
    )


class TestLocalDefect:
    def test_node(self, node_fiber):
        assert local_defect(node_fiber) == 2 - 0 - 1 == 1

    def test_p2_q_factorial(self, p2_fiber):
        assert local_defect(p2_fiber) == 1 - 0 - 1 == 0

    def test_two_quadrics_one_curve(self):
        fd = ExceptionalFiberDescriptor(
            "x1",
            (FiberComponent("F1", Q, 1), FiberComponent("F2", Q, 1)),
            {("F1", "F2"): 1},
        )
        assert local_defect(fd) == 4 - 1 - 2 == 1

    def test_rejects_non_surface(self):
        fd = ExceptionalFiberDescriptor(
            "x1", (FiberComponent("F1", projective_space(1), 1),), {}
        )
        with pytest.raises(DescriptorError):
            local_defect(fd)


class TestFiberValidatedOnce:
    def test_defect_validates_each_fiber_once(self, corpus, capsys, count_calls):
        path = corpus / "fiber_two_quadrics.json"
        fibers = len(json.loads(path.read_text(encoding="utf-8"))["fibers"])
        calls = count_calls(ExceptionalFiberDescriptor, "validate")
        assert main(["defect", str(path)]) == 0
        capsys.readouterr()
        assert calls["validate"] == fibers

    def test_invalid_fiber_raises_on_every_call(self, count_calls):
        fd = ExceptionalFiberDescriptor(
            "x1", (FiberComponent("F1", projective_space(1), 1),), {}
        )
        calls = count_calls(ExceptionalFiberDescriptor, "validate")
        for _ in range(2):
            with pytest.raises(DescriptorError, match="must be a surface"):
                local_defect(fd)
            with pytest.raises(DescriptorError, match="must be a surface"):
                defect_bound_check(fd)
        assert calls["validate"] == 4

    def test_pairwise_counts_are_read_only(self):
        fd = ExceptionalFiberDescriptor(
            "x1", (FiberComponent("F1", Q, 1), FiberComponent("F2", Q, 1)), {("F1", "F2"): 1}
        )
        with pytest.raises(TypeError):
            fd.pairwise_counts[("F1", "F2")] = 5
        assert fd.pairwise_counts == {("F1", "F2"): 1}

    def test_swapped_pair_is_reported_not_merged(self):
        # re-sorting the keys would keep the 5 and give sigma = 4 - 5 - 2 = -3
        fd = ExceptionalFiberDescriptor(
            "x1",
            (FiberComponent("F1", Q, 1), FiberComponent("F2", Q, 1)),
            {("F1", "F2"): 1, ("F2", "F1"): 5},
        )
        assert fd.validate() == ["intersection pair ('F2', 'F1') is not sorted"]
        with pytest.raises(DescriptorError, match=r"\('F2', 'F1'\) is not sorted"):
            local_defect(fd)


@pytest.mark.parametrize("value", [1.5, True, "1"], ids=repr)
class TestIntegerRule:
    """Data built in code is held to the loader's rule: an entry, discrepancy
    or count is an `int` (a bool is not one), and a non-int is reported as a
    problem, not taken as a number or met by a TypeError later."""

    def test_diamond_entry(self, value):
        with pytest.raises(DiamondError, match=r"h\^\{1,1\} = .* is not an integer"):
            HodgeDiamond(1, {(0, 0): 1, (1, 1): value})

    def test_descriptor_discrepancy(self, value):
        d = ResolutionDescriptor(
            2, (("E", value),), {(): diag(1, 2, 1), ("E",): projective_space(1)})
        message = f"component 'E' has non-integer discrepancy {value!r}"
        assert d.validate() == [message]
        with pytest.raises(DescriptorError, match="non-integer discrepancy"):
            stringy_e(d)

    def test_fiber_discrepancy(self, value):
        fd = ExceptionalFiberDescriptor("x1", (FiberComponent("F1", Q, value),), {})
        assert fd.validate() == [f"component 'F1' has non-integer discrepancy {value!r}"]
        with pytest.raises(DescriptorError, match="non-integer discrepancy"):
            local_defect(fd)

    def test_fiber_pair_count(self, value):
        fd = ExceptionalFiberDescriptor(
            "x1", (FiberComponent("F1", Q, 1), FiberComponent("F2", Q, 1)), {("F1", "F2"): value}
        )
        message = f"non-integer intersection count {value!r} for pair ('F1', 'F2')"
        assert fd.validate() == [message]
        with pytest.raises(DescriptorError, match="non-integer intersection count"):
            defect_bound_check(fd)


class TestDefectBound:
    def test_node(self, node_fiber):
        assert defect_bound_check(node_fiber)

    def test_p2_zero_vs_zero(self, p2_fiber):
        assert defect_bound_check(p2_fiber)

    def test_synthetic_violation_flagged(self):
        # defect 1 but no discrepancy-1 component: not geometrically realizable
        fd = ExceptionalFiberDescriptor("x1", (FiberComponent("F1", Q, 2),), {})
        assert local_defect(fd) == 1
        assert not defect_bound_check(fd)


class TestThreefoldDifference:
    def test_node_threefold(self):
        d = ResolutionDescriptor(3, (("E", 1),), {(): diag(1, 3, 3, 1), ("E",): Q}, "node")
        assert threefold_h22_minus_h11(d) == -2 + 0 + 1 + 1 == 0

    def test_burkhardt(self, burkhardt):
        assert threefold_h22_minus_h11(burkhardt) == -90 + 0 + 45 + 45 == 0

    def test_smooth(self):
        d = ResolutionDescriptor(3, (), {(): projective_space(3)}, "P3")
        assert threefold_h22_minus_h11(d) == 0

    def test_rejects_fourfold(self):
        d = ResolutionDescriptor(4, (), {(): projective_space(4)}, "P4")
        with pytest.raises(DescriptorError):
            threefold_h22_minus_h11(d)

    def test_reads_h22_and_h11_of_y(self):
        # Y with h^{2,2} = 1 != h^{1,1} = 3: the difference still follows the series
        d = ResolutionDescriptor(3, (("E", 1),), {(): diag(1, 3, 1, 1), ("E",): Q}, "Y")
        report = stringy_hodge_table(d, bound=6)
        assert threefold_h22_minus_h11(d) == report.h_st(2, 2) - report.h_st(1, 1) == -2
        assert conjecture_report(d).threefold_inequality is False

    @settings(max_examples=60)
    @given(descriptors(min_discrepancy=1, max_dim=3))
    def test_matches_series_expansion(self, d):
        if d.n != 3:
            return
        report = stringy_hodge_table(d, bound=6)
        expected = report.h_st(2, 2) - report.h_st(1, 1)
        assert threefold_h22_minus_h11(d) == expected

    @settings(max_examples=60)
    @given(descriptors(min_discrepancy=1, max_dim=3))
    def test_zero_whenever_polynomial(self, d):
        if d.n != 3:
            return
        if stringy_hodge_table(d).polynomial is not None:
            assert threefold_h22_minus_h11(d) == 0


class TestProductStringy:
    def test_product_with_point(self):
        d = ResolutionDescriptor(3, (("E", 1),), {(): diag(1, 3, 3, 1), ("E",): Q}, "node")
        prod = product_stringy(d, projective_space(0))
        assert prod.n == 3
        assert prod.strata == d.strata

    def test_burkhardt_times_p1(self, burkhardt):
        from stringyhodge import h22st_fourfold

        x = product_stringy(burkhardt, projective_space(1))
        assert h22st_fourfold(x) == 32

    def test_e_function_factors(self, burkhardt):
        z = projective_space(1)
        prod = product_stringy(burkhardt, z)
        f = stringy_e(burkhardt)
        assert stringy_e(prod).equals(
            StringyFunction(f.numerator * e_polynomial(z), f.denominator)
        )

    @settings(max_examples=40)
    @given(descriptors(max_dim=3))
    def test_e_function_factors_random(self, d):
        z = projective_space(1)
        f = stringy_e(d)
        assert stringy_e(product_stringy(d, z)).equals(
            StringyFunction(f.numerator * e_polynomial(z), f.denominator)
        )

    def test_one_kunneth_product_per_distinct_diamond_value(self, count_calls):
        # two equal diamonds held as separate objects share one product
        d = ResolutionDescriptor(
            3,
            (("E", 1), ("F", 1)),
            {(): diag(1, 2, 2, 1), ("E",): quadric_surface(), ("F",): quadric_surface(),
             ("E", "F"): projective_space(1)},
        )
        assert d.strata[("E",)] is not d.strata[("F",)]
        products = count_calls(hodge, "kunneth")
        prod = product_stringy(d, projective_space(1))
        assert products["kunneth"] == 3
        assert prod.strata[("E",)] is prod.strata[("F",)]

    def test_rejects_invalid_factor(self, burkhardt):
        bad = HodgeDiamond(1, {(0, 0): 1, (1, 0): 2, (0, 1): 2})  # no h^{1,1}
        with pytest.raises(DescriptorError):
            product_stringy(burkhardt, bad)


class TestConjectureReport:
    def test_burkhardt_times_p1_all_nonnegative(self, burkhardt):
        x = product_stringy(burkhardt, projective_space(1))
        report = conjecture_report(x)
        assert report.all_nonnegative()
        assert report.values[(2, 2)] == 32
        assert report.polynomial

    def test_smooth_all_nonnegative(self):
        d = ResolutionDescriptor(3, (), {(): projective_space(3)}, "P3")
        assert conjecture_report(d).all_nonnegative()

    def test_negative_detector_fires(self):
        d = ResolutionDescriptor(
            4,
            (("E", 2),),
            {(): diag(1, 1, 1, 1, 1), ("E",): diag(1, 5, 5, 1)},
            "synthetic negative",
        )
        report = conjecture_report(d)
        assert report.verdicts[(2, 2)] == "negative"
        detail = report.negative_details[(2, 2)]
        assert detail["a_pq"] == -4
        assert detail["discrepancy_one_count"] == 0

    def test_threefold_inequality_reported(self, burkhardt):
        assert conjecture_report(burkhardt).threefold_inequality is True

    def test_closed_form_provenance(self, burkhardt):
        report = conjecture_report(burkhardt)
        assert report.provenance[(1, 1)] == "closed-form"
        assert report.provenance[(3, 3)] == "expansion"

    def test_closed_form_disagreement_raises(self, burkhardt, monkeypatch):
        monkeypatch.setattr("stringyhodge.analysis.closed_form_h", lambda d, p, q: 10**9)
        with pytest.raises(CrossCheckError, match=r"h\^\{0,0\}_st = 1000000000"):
            conjecture_report(burkhardt)
