import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from stringyhodge import (
    BivariatePoly,
    DescriptorError,
    DiamondError,
    ExceptionalFiberDescriptor,
    FiberComponent,
    HodgeDiamond,
    ResolutionDescriptor,
    SncComplexData,
    SncComponent,
    SncDataError,
    check_pd_identity,
    check_symmetry,
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


class TestRejectedArguments:
    def test_negative_dimension(self):
        with pytest.raises(DiamondError, match="dimension must be nonnegative"):
            HodgeDiamond(-1)

    @pytest.mark.parametrize("dim", [1.5, 1.0, True, False, "1", None])
    def test_dimension_that_is_not_an_int(self, dim):
        with pytest.raises(DiamondError, match=f"dimension {dim!r} is not an integer"):
            HodgeDiamond(dim, {(0, 0): 1})

    def test_entry_outside_the_range(self):
        with pytest.raises(DiamondError, match=r"h\^\{2,0\} outside the 1-dimensional range"):
            HodgeDiamond(1, {(0, 0): 1, (2, 0): 1})

    @pytest.mark.parametrize("pq", [(3, 0), (-1, 0), (0, 3)])
    def test_zero_entry_outside_the_range(self, pq):
        # the range rule reads the key whatever the entry, as the loader does
        with pytest.raises(DiamondError) as err:
            HodgeDiamond(2, {(0, 0): 1, pq: 0})
        assert str(err.value) == "h^{%d,%d} outside the 2-dimensional range" % pq

    @pytest.mark.parametrize("key", [("a", 0), (0,), (0, 0, 0)], ids=["str", "one", "three"])
    def test_key_that_is_not_a_pair_of_ints_is_named(self, key):
        with pytest.raises(DiamondError) as err:
            HodgeDiamond(2, {(0, 0): 1, key: 1})
        assert str(err.value) == f"key {key!r} is not a pair (p, q) of integers"

    def test_negative_copy_count(self):
        with pytest.raises(DiamondError, match="copy count must be nonnegative"):
            projective_space(1) * -1

    def test_negative_genus(self):
        with pytest.raises(DiamondError, match="genus must be nonnegative"):
            curve(-1)


# whatever may land where a diamond belongs: no diamond at all, a table that
# is not one, a diamond of another dimension, a negative or asymmetric one
SLOT_VALUES = st.one_of(
    st.none(),
    st.dictionaries(st.tuples(st.integers(-1, 3), st.integers(-1, 3)), st.integers(-2, 2),
                    max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.integers(), max_size=3),
    st.tuples(st.integers(), st.integers()),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2).map(lambda xs: (x for x in xs)),
    st.integers(0, 4).map(projective_space),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-2, 3),
                    max_size=5).map(lambda h: HodgeDiamond(2, h)),
)

HOLDERS = {
    "stratum": lambda value: ResolutionDescriptor(2, (), {(): value}),
    "snc component": lambda value: SncComplexData(levels={1: (SncComponent(("A",), value),)}),
    "fiber component": lambda value: ExceptionalFiberDescriptor(
        "p", (FiberComponent("A", value, 1),)),
    "h argument": lambda value: HodgeDiamond(2, value),
}


class TestDiamondSlot:
    @pytest.mark.parametrize("holder", HOLDERS)
    @given(value=SLOT_VALUES)
    def test_any_value_is_reported_or_rejected_by_the_package(self, holder, value):
        try:
            made = HOLDERS[holder](value)
            problems = validate(made) if holder == "h argument" else made.validate()
        except (DiamondError, DescriptorError, SncDataError):
            return
        assert type(problems) is list and all(type(p) is str for p in problems)
        if holder == "stratum":  # the identity checks validate first
            for check in (check_symmetry, check_pd_identity):
                if problems:
                    with pytest.raises(DescriptorError) as err:
                        check(made)
                    assert str(err.value) == "; ".join(problems)
                else:  # both identities are theorems for valid strata
                    assert check(made) in (True, None)
        if problems and holder != "h argument":
            with pytest.raises((DescriptorError, SncDataError)):
                made.check_valid()

    @pytest.mark.parametrize("holder, problem", [
        ("stratum", "stratum (): {(0, 0): 1} is not a HodgeDiamond"),
        ("snc component", "level 1 component 0: {(0, 0): 1} is not a HodgeDiamond"),
        ("fiber component", "component 'A': {(0, 0): 1} is not a HodgeDiamond"),
    ])
    def test_a_table_in_a_diamond_slot_names_its_holder(self, holder, problem):
        made = HOLDERS[holder]({(0, 0): 1})
        assert made.validate() == [problem]
        with pytest.raises((DescriptorError, SncDataError)) as err:
            made.check_valid()
        assert str(err.value) == problem

    def test_the_identity_checks_name_a_table_in_a_stratum(self):
        # check_pd_identity gives no inconclusive verdict that blames stratum ()
        # for a duality failure
        made = HOLDERS["stratum"]({(0, 0): 1})
        for check in (check_symmetry, check_pd_identity):
            with pytest.raises(DescriptorError) as err:
                check(made)
            assert str(err.value) == "stratum (): {(0, 0): 1} is not a HodgeDiamond"

    @pytest.mark.parametrize("h", [[((0, 0), 1)], "ab", 0, projective_space(2)],
                             ids=["pairs", "str", "zero", "diamond"])
    def test_entries_that_are_not_a_mapping_are_named(self, h):
        with pytest.raises(DiamondError) as err:
            HodgeDiamond(2, h)
        assert str(err.value) == f"h = {h!r} is not a mapping of pairs (p, q) to integers"

    def test_a_generator_is_not_a_mapping(self):
        with pytest.raises(DiamondError, match="^h = <generator object .* is not a mapping"):
            HodgeDiamond(2, (pq for pq in [(0, 0)]))


class TestImmutableValue:
    def test_fields_cannot_be_reassigned_or_deleted(self):
        d = projective_space(2)
        for name, value in (("h", {}), ("dim", 3)):
            with pytest.raises(AttributeError):
                setattr(d, name, value)
            with pytest.raises(AttributeError):
                delattr(d, name)
        assert d == diag(1, 1, 1)

    def test_entries_cannot_be_written(self):
        d = projective_space(1)
        with pytest.raises(TypeError):
            d.h[(0, 0)] = 5
        with pytest.raises(TypeError):
            del d.h[(1, 1)]
        assert d.h == {(0, 0): 1, (1, 1): 1}

    def test_the_table_passed_in_is_copied(self):
        table = {(0, 0): 1, (1, 1): 1}
        d = HodgeDiamond(1, table)
        table[(0, 0)] = 7
        assert d.hpq(0, 0) == 1

    def test_zeros_are_not_entries(self):
        with_zeros = HodgeDiamond(1, {(0, 0): 1, (1, 0): 0, (0, 1): 0, (1, 1): 1})
        assert with_zeros == projective_space(1)
        assert hash(with_zeros) == hash(projective_space(1))
        assert dict(with_zeros.h) == {(0, 0): 1, (1, 1): 1}

    def test_equal_only_on_dim_and_entries(self):
        assert HodgeDiamond(1, {(0, 0): 1}) != HodgeDiamond(0, {(0, 0): 1})
        assert projective_space(1) != curve(1)
        assert projective_space(1) != {(0, 0): 1, (1, 1): 1}
        assert len({projective_space(1), curve(0), diag(1, 1), projective_space(0)}) == 2

    def test_repr_shows_a_plain_table(self):
        assert repr(projective_space(1)) == "HodgeDiamond(dim=1, h={(0, 0): 1, (1, 1): 1})"

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_and_pickles_are_equal_values_scanned_anew(self, round_trip):
        d = HodgeDiamond(2, {(0, 0): 1, (1, 0): 2, (2, 2): -1})
        problems = validate(d, smooth_projective=True)
        again = round_trip(d)
        assert type(again) is HodgeDiamond and again == d and hash(again) == hash(d)
        assert again._verdicts == [None, None]
        assert validate(again, smooth_projective=True) == problems

    @given(pd_diamonds(2), st.randoms(use_true_random=False))
    def test_equal_diamonds_hash_equal_whatever_the_entry_order(self, d, rng):
        items = list(d.h.items())
        rng.shuffle(items)
        same = HodgeDiamond(d.dim, dict(items))
        assert same == d and hash(same) == hash(d)
        assert {d: 1}[same] == 1


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

    def test_disjoint_union_requires_equal_dimensions(self):
        with pytest.raises(DiamondError, match="disjoint union requires equal dimensions"):
            projective_space(2) + projective_space(1)
