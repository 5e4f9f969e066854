import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringyhodge import (
    BivariatePoly,
    DenominatorSpec,
    DescriptorError,
    ExceptionalFiberDescriptor,
    FiberComponent,
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
    hodge,
    local_defect,
    projective_space,
    quadric_surface,
    stringy,
    stringy_e,
    stringy_hodge_table,
)
from stringyhodge.descriptors import load_bundle
from stringyhodge.stringy import first_coefficient_difference
from conftest import (
    CORPUS, cross_multiplied_equal, descriptors, diag, pd_diamonds, stratum_sum_table,
)


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

    @pytest.mark.parametrize("key", ["E", frozenset({"E"}), 0], ids=["str", "frozenset", "int"])
    def test_stratum_key_that_is_not_a_tuple_is_reported(self, key):
        # kept as written, not read as ("E",): the other key rules read a tuple
        d = ResolutionDescriptor(2, (("E", 1),), {(): diag(1, 1, 1), key: diag(1, 1)})
        assert list(d.strata) == [(), key]
        assert d.validate() == [f"stratum key {key!r} is not a tuple"]
        with pytest.raises(DescriptorError, match="is not a tuple"):
            stringy_e(d)

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_dimension_that_is_not_an_int_is_the_one_problem(self, n):
        # reported before any stratum's dimension is compared with n
        d = ResolutionDescriptor(n, (("E", 1),), {(): diag(1, 1, 1), ("E",): diag(1, 1)})
        message = f"dimension n = {n!r} is not an integer"
        assert d.validate() == [message]
        for call in (stringy_e, stringy_hodge_table):
            with pytest.raises(DescriptorError, match=message):
                call(d)

    @pytest.mark.parametrize("components, key, message", [
        ([("A",)], (), "component ('A',) is not a pair (str id, discrepancy)"),
        (["A1"], (), "component 'A1' is not a pair (str id, discrepancy)"),
        ([(1, 1)], (), "component (1, 1) is not a pair (str id, discrepancy)"),
        ([("A", 1)], ("A", 1), "stratum key ('A', 1) names an id that is not a string"),
    ], ids=["one field", "str", "int id", "int id in a key"])
    def test_a_component_or_id_of_another_shape_is_the_one_problem(self, components, key,
                                                                    message):
        # each once raised ValueError on unpacking or TypeError from <
        d = ResolutionDescriptor(2, components, {(): diag(1, 1, 1), key: diag(1)})
        assert d.validate() == [message]
        with pytest.raises(DescriptorError) as err:
            stringy_e(d)
        assert str(err.value) == message

    def test_discrepancy_zero_subsets_vanish(self, node):
        # adding a crepant component changes nothing
        with_crepant = ResolutionDescriptor(
            3,
            (("E", 1), ("C", 0)),
            {(): diag(1, 3, 3, 1), ("E",): quadric_surface(), ("C",): quadric_surface()},
            "node + crepant divisor",
        )
        assert stringy_e(with_crepant).equals(stringy_e(node))


# whatever may land in a component or a stratum key built in code
ANY_ID = st.one_of(st.text(max_size=2), st.integers(-1, 2), st.none(), st.floats(),
                   st.booleans())
COMPONENTS = st.lists(st.one_of(
    st.tuples(ANY_ID, st.one_of(st.integers(-1, 3), st.floats(), st.booleans(), st.none(),
                                st.text(max_size=1))),
    st.tuples(ANY_ID),
    st.tuples(ANY_ID, st.integers(), st.integers()),
    st.lists(st.integers(), max_size=2),
    st.text(max_size=2),
    st.integers(),
    st.none(),
), max_size=3)
STRATUM_KEYS = st.one_of(st.lists(ANY_ID, max_size=3).map(tuple), ANY_ID,
                         st.frozensets(st.text(max_size=1), max_size=2))
ONE_PROBLEM = ("is not a pair (str id, discrepancy)", "names an id that is not a string")


class TestDescriptorFields:
    @given(components=COMPONENTS, keys=st.lists(STRATUM_KEYS, max_size=4))
    def test_any_component_or_stratum_key_is_reported(self, components, keys):
        strata = {(): projective_space(2), **{key: projective_space(1) for key in keys}}
        made = ResolutionDescriptor(2, components, strata)
        problems = made.validate()
        assert type(problems) is list and all(type(p) is str for p in problems)
        for problem in problems:
            if problem.endswith(ONE_PROBLEM):
                assert problems == [problem]
        if problems:
            with pytest.raises(DescriptorError):
                made.check_valid()
        else:
            stringy_e(made)

    @pytest.mark.parametrize("make, message", [
        (lambda: ResolutionDescriptor(2, (), None), "strata None is not a dict"),
        (lambda: ResolutionDescriptor(2, (), [1]), "strata [1] is not a dict"),
        (lambda: ResolutionDescriptor(2, None, {(): projective_space(2)}),
         "components None is not a tuple"),
        (lambda: ExceptionalFiberDescriptor("x", None), "components None is not a tuple"),
        (lambda: ExceptionalFiberDescriptor("x", (), None), "pairwise_counts None is not a dict"),
    ], ids=["strata None", "strata list", "components None", "fiber components None",
            "fiber counts None"])
    def test_a_field_that_is_no_collection_is_named(self, make, message):
        # each once raised TypeError or ValueError from tuple() or dict()
        with pytest.raises(DescriptorError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize("component", [("E", projective_space(1), 1),
                                           FiberComponent(1, quadric_surface(), 1)],
                             ids=["plain tuple", "int id"])
    def test_a_fiber_component_of_another_shape_is_the_one_problem(self, component):
        # a plain tuple once raised AttributeError on .comp_id
        fd = ExceptionalFiberDescriptor("x", (FiberComponent("F", quadric_surface(), 1),
                                              component), {("E", "F"): 1})
        message = f"component {component!r} is not a FiberComponent with a str id"
        assert fd.validate() == [message]
        with pytest.raises(DescriptorError) as err:
            local_defect(fd)
        assert str(err.value) == message


def per_stratum_validate(d):
    """validate() as it was before its bulk key tests, kept as the reference:
    every key rule and the downward closure are tested stratum by stratum."""
    if type(d.n) is not int:
        return [f"dimension n = {d.n!r} is not an integer"]
    for comp in d.components:
        if not (type(comp) is tuple and len(comp) == 2 and type(comp[0]) is str):
            return [f"component {comp!r} is not a pair (str id, discrepancy)"]
    problems = []
    ids = [cid for cid, _ in d.components]
    if len(set(ids)) != len(ids):
        problems.append("duplicate component ids")
    for cid, a in d.components:
        if type(a) is not int:
            problems.append(f"component {cid!r} has non-integer discrepancy {a!r}")
        elif a < 0:
            problems.append(f"component {cid!r} has negative discrepancy {a}")
    if () not in d.strata:
        problems.append("missing Y stratum (empty subset)")
    known = set(ids)
    for subset, diamond in d.strata.items():
        if type(subset) is not tuple:
            problems.append(f"stratum key {subset!r} is not a tuple")
            continue
        if not all(type(cid) is str for cid in subset):
            return [f"stratum key {subset!r} names an id that is not a string"]
        if tuple(sorted(subset)) != subset:
            problems.append(f"stratum key {subset!r} is not sorted")
        if len(set(subset)) != len(subset):
            problems.append(f"stratum key {subset!r} repeats a component")
        unknown = set(subset) - known
        if unknown:
            problems.append(f"stratum {subset!r} names unknown components {sorted(unknown)}")
        expected = d.n - len(subset)
        if isinstance(diamond, HodgeDiamond) and diamond.dim != expected:
            problems.append(f"stratum {subset!r} has dimension {diamond.dim}, expected {expected}")
        problems.extend(f"stratum {subset!r}: {msg}" for msg in hodge.validate(diamond))
        for sub in itertools.combinations(subset, len(subset) - 1) if subset else ():
            if sub not in d.strata:
                problems.append(f"downward closure broken: {subset!r} present but {sub!r} missing")
    return problems


MUTATIONS = {  # each with the least number of ids of a tuple key it applies to
    "swap two ids": 2, "repeat an id": 1, "add an unknown id": 0, "make it no tuple": 1,
    "add an id that is no string": 0, "drop a facet": 2, "wrong dimension": 0,
    "invalid diamond": 0, "drop Y": 0,
}


@st.composite
def mutated_descriptors(draw):
    """A valid random descriptor with one to three of MUTATIONS applied in
    place, so that the strata keep their order; a changed key may also come
    in after the one it was made from, which stays."""
    d = draw(descriptors(max_components=5))
    strata = list(d.strata.items())
    for kind in draw(st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=3)):
        if kind == "drop Y":
            strata = [(J, s) for J, s in strata if J != ()]
            continue
        fits = [i for i, (J, _) in enumerate(strata)
                if type(J) is tuple and len(J) >= MUTATIONS[kind]]
        if not fits:
            continue
        i = draw(st.sampled_from(fits))
        J, s = strata[i]
        at = draw(st.integers(0, len(J)))  # where an id goes in
        if kind == "swap two ids":
            a, b = sorted(draw(st.lists(st.integers(0, len(J) - 1), min_size=2, max_size=2,
                                        unique=True)))
            J = J[:a] + J[b:b + 1] + J[a + 1:b] + J[a:a + 1] + J[b + 1:]
        elif kind == "repeat an id":
            at = min(at, len(J) - 1)
            J = J[:at + 1] + J[at:]
        elif kind == "add an unknown id":
            J = J[:at] + (draw(st.sampled_from(["A", "Z", "D9"])),) + J[at:]
        elif kind == "make it no tuple":
            J = draw(st.sampled_from(["".join(map(str, J)), frozenset(J), J[0]]))
        elif kind == "add an id that is no string":
            J = J[:at] + (draw(st.sampled_from([0, 1, None, 1.5])),) + J[at:]
        elif kind == "drop a facet":
            # any facet, the middle ones included: ("A", "C") under ("A", "B", "C")
            at = draw(st.integers(0, len(J) - 1))
            strata = [(K, t) for K, t in strata if K != J[:at] + J[at + 1:]]
            continue
        elif kind == "wrong dimension" and isinstance(s, HodgeDiamond):
            s = projective_space(s.dim + draw(st.sampled_from([1, 2])))
        elif kind == "invalid diamond":
            s = draw(st.sampled_from([HodgeDiamond(0, {(0, 0): -1}),
                                      HodgeDiamond(1, {(0, 0): 1, (1, 0): 1, (1, 1): 1}),
                                      {(0, 0): 1}, None]))
        if J != strata[i][0] and draw(st.booleans()):
            strata.insert(i + 1, (J, s))
        else:
            strata[i] = (J, s)
    return ResolutionDescriptor(d.n, d.components, dict(strata), "mutated")


class TestBulkKeyTests:
    """validate() accepts valid keys with a few tests in C and names the faults
    of the others stratum by stratum, with the messages, in the order, that
    testing every key rule on every stratum gives."""

    @settings(max_examples=300)
    @given(mutated_descriptors())
    def test_every_message_list_is_the_per_stratum_one(self, made):
        assert made.validate() == per_stratum_validate(made)

    @settings(max_examples=50)
    @given(descriptors(max_components=5))
    def test_valid_descriptors_stay_valid(self, d):
        assert d.validate() == per_stratum_validate(d) == []

    @pytest.mark.parametrize("keys, message", [
        ([("A", "B", "C"), ("A", "B"), ("B", "C")],
         "downward closure broken: ('A', 'B', 'C') present but ('A', 'C') missing"),
        ([("A", "C", "B"), ("A", "C"), ("A", "B"), ("C", "B")],
         "stratum key ('C', 'B') is not sorted"),
        ([("A", "A", "B"), ("A", "A"), ("A", "B")],
         "stratum key ('A', 'A') repeats a component"),
    ], ids=["middle facet", "three ids out of order", "repeated id"])
    def test_a_fault_in_a_key_of_three_ids_is_named(self, keys, message):
        # every 1-id key is there, so only the fault named breaks the bulk tests
        strata = {(): projective_space(3), ("A",): diag(1, 1, 1), ("B",): diag(1, 1, 1),
                  ("C",): diag(1, 1, 1)}
        strata.update((J, projective_space(3 - len(J))) for J in keys)
        d = ResolutionDescriptor(3, (("A", 1), ("B", 1), ("C", 2)), strata)
        assert message in d.validate()
        assert d.validate() == per_stratum_validate(d)


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
        # an asymmetric ambient diamond is refused, never assembled
        broken = ResolutionDescriptor(
            3,
            (("E", 1),),
            {
                (): HodgeDiamond(3, {(0, 0): 1, (1, 0): 1, (3, 3): 1}),
                ("E",): quadric_surface(),
            },
            "broken",
        )
        for check in (check_symmetry, check_pd_identity):
            with pytest.raises(DescriptorError, match="conjugation symmetry broken"):
                check(broken)
        assert "_e_st" not in vars(broken)

    def test_an_asymmetric_e_st_fails_both_identity_checks(self, node, monkeypatch):
        # on valid input both identities are theorems, so break the assembly:
        # an extra u-term in the numerator must make both checks answer False
        assemble = stringy._assemble

        def with_extra_u_term(d):
            f = assemble(d)
            return StringyFunction(f.numerator + BivariatePoly({(1, 0): 1}), f.denominator)

        assert check_symmetry(node) and check_pd_identity(node)
        monkeypatch.setattr(stringy, "_assemble", with_extra_u_term)
        for check in (check_symmetry, check_pd_identity):
            fresh_node = ResolutionDescriptor(node.n, node.components, node.strata, node.label)
            assert check(fresh_node) is False

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


def numerator_symmetric(f):
    """check_symmetry's definition on the numerator polynomial itself."""
    return f.numerator == f.numerator.swap_vars()


def numerator_dual(d, f):
    """check_pd_identity's definition on the numerator polynomial itself."""
    if not d.strata_pd_consistent():
        return None
    sign = (-1) ** len(f.denominator.factors)
    shift = d.n + sum(f.denominator.factors)
    terms = f.numerator.terms
    return terms == {(shift - p, shift - q): sign * c for (p, q), c in terms.items()}


def without_duality(d):
    """d with its ambient h^{0,0} raised by one: still valid, but Y fails
    Poincare duality (h^{n,n} stays), so the duality verdict is None."""
    y = d.strata[()]
    strata = {**d.strata, (): HodgeDiamond(d.n, {**y.h, (0, 0): y.h[(0, 0)] + 1})}
    return ResolutionDescriptor(d.n, d.components, strata, d.label)


def e_function_with(d, terms, factors, symmetric, dual):
    """A numerator from `terms` over prod (w^m - 1), closed under u <-> v and
    under the duality map of check_pd_identity as asked; the closures commute."""
    num = BivariatePoly(terms)
    if symmetric:
        num = num + num.swap_vars()
    if dual:
        shift = d.n + sum(factors)
        sign = (-1) ** len(factors)
        num = num + BivariatePoly({(shift - p, shift - q): sign * c
                                   for (p, q), c in num.terms.items()})
    return StringyFunction(num, DenominatorSpec(factors))


@st.composite
def kept_e_functions(draw):
    """A valid descriptor, with or without duality of its strata, whose kept
    E_st is either its assembly or a function built with or without each
    symmetry (on valid input both identities are theorems, so only a kept
    function that is no assembly can fail them)."""
    d = draw(descriptors(max_dim=3, max_components=3))
    if draw(st.booleans()):
        d = without_duality(d)
    if draw(st.booleans()):
        factors = tuple(draw(st.lists(st.integers(2, 4), max_size=3)))
        terms = draw(st.dictionaries(st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
                                     st.integers(-3, 3), max_size=6))
        d.check_valid()
        d.__dict__["_e_st"] = e_function_with(d, terms, factors, draw(st.booleans()),
                                              draw(st.booleans()))
    return d


class TestIdentityChecksReadRows:
    """check_symmetry and check_pd_identity compare rows (`_slices`); they must
    give the verdicts of the definitions on the numerator polynomial."""

    @settings(max_examples=150)
    @given(kept_e_functions())
    def test_rows_give_the_numerator_verdicts(self, d):
        f = stringy_e(d)
        assert check_symmetry(d) is numerator_symmetric(f)
        assert check_pd_identity(d) is numerator_dual(d, f)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("dual", [True, False])
    @pytest.mark.parametrize("factors", [(), (2,), (2, 3)])  # (-1)^K = 1, -1, 1
    def test_every_verdict_occurs(self, node, symmetric, dual, factors):
        # (2, 0) alone has neither symmetry; each closure adds its own
        d = ResolutionDescriptor(node.n, node.components, node.strata, node.label)
        d.check_valid()
        f = d.__dict__["_e_st"] = e_function_with(d, {(2, 0): 1, (1, 1): 3}, factors,
                                                  symmetric, dual)
        assert "numerator" in vars(f)  # the test built it; the checks read rows
        assert check_symmetry(d) is symmetric is numerator_symmetric(f)
        assert check_pd_identity(d) is dual is numerator_dual(d, f)
        broken = without_duality(d)
        broken.check_valid()
        broken.__dict__["_e_st"] = f
        assert check_pd_identity(broken) is None is numerator_dual(broken, f)

    def test_an_assembled_e_st_is_checked_with_no_numerator_formed(self, node):
        d = ResolutionDescriptor(node.n, node.components, node.strata, node.label)
        assert check_symmetry(d) is True and check_pd_identity(d) is True
        assert "numerator" not in vars(stringy_e(d))


def two_quadrics(a):
    """A threefold resolved by two quadric surfaces of discrepancies a and
    a + 1 that meet in a P^1."""
    return ResolutionDescriptor(
        3,
        (("E1", a), ("E2", a + 1)),
        {(): diag(1, 3, 3, 1), ("E1",): quadric_surface(), ("E2",): quadric_surface(),
         ("E1", "E2"): diag(1, 1)},
    )


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

    def test_a_degree_below_2n_is_named(self):
        # E_st = 1 + uv: a valid surface descriptor whose polynomial has
        # degree 2, not 4, and is not dual under (p, q) -> (2 - p, 2 - q)
        surface = ResolutionDescriptor(2, (), {(): HodgeDiamond(2, {(0, 0): 1, (1, 1): 1})})
        assert not surface.validate()
        assert stringy_hodge_table(surface).polynomial.terms == {(0, 0): 1, (1, 1): 1}
        assert check_polynomial_consequences(surface) == {
            "applicable": True,
            "passed": False,
            "failures": ["degree 2 != 4", "duality broken between (0,0) and (2,2)"],
        }

    def test_terms_outside_the_diamond_are_named(self):
        # no descriptor assembles such a quotient, so the kept one is set by
        # hand: degree 4 = 2n and dual under (p, q) -> (2 - p, 2 - q)
        surface = ResolutionDescriptor(2, (), {(): projective_space(2)}, "P^2")
        surface.__dict__["_e_st_polynomial"] = BivariatePoly({(3, 1): 1, (-1, 1): 1})
        assert check_polynomial_consequences(surface) == {
            "applicable": True,
            "passed": False,
            "failures": [
                "nonzero coefficient outside the diamond at (-1,1)",
                "nonzero coefficient outside the diamond at (3,1)",
            ],
        }

    def test_rejected_from_the_nonzero_entries(self):
        # a = 10^6 and 10^6 + 1: one row of 2,000,007 entries, seven of them
        # nonzero, over (w^(a+1) - 1)(w^(a+2) - 1); mod w^(a+1) - 1 the row is
        # 1 - 2w^2 + w^4, not 0, which its nonzero entries show without an
        # expansion of the row (a dense one peaks near 50 MB)
        f = stringy_e(two_quadrics(10**6))
        tracemalloc.start()
        try:
            result = exact_divide_test(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result is None
        assert peak < 1_000_000

    def test_expansion_is_bounded_by_its_length_not_its_factors(self):
        # to p + q <= 6 each row needs at most four entries, and the factors
        # w^(10^6 + 1) - 1 and w^(10^6 + 2) - 1 only flip their sign there:
        # E_st = E(Y) - w E(E1) - w E(E2) + w^2 E(E1 E2) + O(w^(10^6))
        f = stringy_e(two_quadrics(10**6))
        tracemalloc.start()
        try:
            coefficients = f.series_coefficients(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coefficients == {(0, 0): 1, (1, 1): 1}
        assert peak < 1_000_000


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


def assert_first_mismatch(d1, d2):
    """The reported mismatch, checked against the two expansions alone: they
    agree before it in the order (p+q, (p,q)), differ at it, and hold the
    reported values there; None only when the functions cross-multiply equal."""
    f1, f2 = stringy_e(d1), stringy_e(d2)
    diff = first_coefficient_difference(d1, d2)
    if diff is None:
        assert cross_multiplied_equal(f1, f2)
        return
    p, q, b1, b2 = diff
    c1, c2 = f1.series_coefficients(p + q), f2.series_coefficients(p + q)
    for key in sorted(c1.keys() | c2.keys(), key=lambda k: (k[0] + k[1], k)):
        if key == (p, q):
            break
        assert c1.get(key, 0) == c2.get(key, 0), key
    assert (c1.get((p, q), 0), c2.get((p, q), 0)) == (b1, b2)
    assert b1 != b2


def exceptional_curve(a):
    """A surface resolved by one P^1 of discrepancy a."""
    return ResolutionDescriptor(2, (("E", a),), {(): diag(1, 2, 1), ("E",): diag(1, 1)})


def exceptional_quadric(a):
    """A threefold resolved by one quadric surface of discrepancy a."""
    return ResolutionDescriptor(3, (("E", a),), {(): diag(1, 3, 3, 1), ("E",): quadric_surface()})


class TestFirstMismatch:
    @settings(max_examples=60)
    @given(st.data())
    def test_agrees_with_the_expansions(self, data):
        d1 = data.draw(descriptors())
        d2 = data.draw(descriptors().filter(lambda d: d.n == d1.n))
        assert_first_mismatch(d1, d2)
        assert_first_mismatch(d2, d1)
        assert first_coefficient_difference(d1, d1) is None

    @pytest.mark.parametrize("k", [1, 2, 5, 40, 1000])
    @pytest.mark.parametrize("family", [exceptional_curve, exceptional_quadric])
    def test_found_past_twice_the_dimension(self, family, k):
        # a = k and a = k + 1 first differ at u^(k+1) v^(k+1); for k >= 5 that
        # is past p + q = 2n + 2, a bound that follows from the dimension alone
        assert first_coefficient_difference(family(k), family(k + 1))[:2] == (k + 1, k + 1)
        assert_first_mismatch(family(k), family(k + 1))

    def test_lift_is_as_sparse_as_its_factors(self):
        # each numerator has a handful of terms and its cofactor is one
        # binomial w^m - 1 with m = 10^5 + 1 or 10^5 + 2: the lift multiplies
        # by the two terms, never by a dense list of m + 1 coefficients
        d1, d2 = exceptional_quadric(10**5), exceptional_quadric(10**5 + 1)
        f1, f2 = stringy_e(d1), stringy_e(d2)
        tracemalloc.start()
        try:
            m1, m2 = f1._lifted(f2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert len(m1.terms) <= 2 * len(f1.numerator.terms)
        assert len(m2.terms) <= 2 * len(f2.numerator.terms)
        assert first_coefficient_difference(d1, d2) == (100001, 100001, 1, 0)

    def test_first_mismatch_reads_one_coefficient_sparsely(self):
        # b1 and b2 sit at w^(10^5 + 1) of a row with six nonzero entries over
        # one factor w^m - 1, m = 10^5 + 1 or 10^5 + 2: each is read from the
        # entries of the row it depends on, never from a dense expansion
        d1, d2 = exceptional_quadric(10**5), exceptional_quadric(10**5 + 1)
        stringy_e(d1), stringy_e(d2)
        tracemalloc.start()
        try:
            result = first_coefficient_difference(d1, d2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert result == (100001, 100001, 1, 0)


def rows_first_coefficient_difference(d1, d2):
    """first_coefficient_difference as it stood before the signature-table
    shortcut: both E-functions assembled, equal denominators and rows answer
    "equal", anything else goes through the lift."""
    if d1.n != d2.n:
        raise DescriptorError(f"dimension mismatch: {d1.n} vs {d2.n}")
    f1, f2 = stringy_e(d1), stringy_e(d2)
    if f1.denominator == f2.denominator and f1._slices == f2._slices:
        return None  # rows have nonzero ends, so equal rows are equal numerators
    m1, m2 = f1._lifted(f2)
    if m1 == m2:
        return None
    t1, t2 = m1.terms, m2.terms
    p, q = min((k for k in t1.keys() | t2.keys() if t1.get(k, 0) != t2.get(k, 0)),
               key=lambda k: (k[0] + k[1], k))
    return p, q, f1._coefficient(p, q), f2._coefficient(p, q)


def fresh(d, strata=None):
    """A new descriptor with d's fields (or other strata), so nothing it keeps is shared."""
    return ResolutionDescriptor(d.n, d.components, dict(strata or d.strata), d.label)


def assert_as_by_rows(d1, d2):
    for a, b in ((d1, d2), (d2, d1)):
        expected = rows_first_coefficient_difference(fresh(a), fresh(b))
        assert first_coefficient_difference(fresh(a), fresh(b)) == expected


@st.composite
def relabelled_pairs(draw):
    """d and a copy with its ids permuted, its keys re-sorted and its strata
    and components in another order: the same signature table."""
    d = draw(descriptors())
    ids = [cid for cid, _ in d.components]
    renamed = dict(zip(ids, draw(st.permutations(ids))))
    components = draw(st.permutations([(renamed[cid], a) for cid, a in d.components]))
    items = draw(st.permutations(list(d.strata.items())))
    copy = ResolutionDescriptor(
        d.n, tuple(components), {tuple(sorted(map(renamed.get, J))): s for J, s in items})
    return d, copy


@st.composite
def killed_strata_pairs(draw):
    """d and a copy whose strata holding an a = 0 component have other diamonds."""
    d = draw(descriptors().filter(lambda d: len(d.strata) > 1))  # a component in a stratum
    held = draw(st.sampled_from(sorted({cid for J in d.strata for cid in J})))
    components = tuple((cid, 0 if cid == held else a) for cid, a in d.components)
    d = ResolutionDescriptor(d.n, components, d.strata, d.label)
    zero = {cid for cid, a in components if a == 0}
    killed = [J for J in d.strata if zero.intersection(J)]
    strata = {**d.strata, **{J: draw(pd_diamonds(d.n - len(J))) for J in killed}}
    return d, fresh(d, strata)


@st.composite
def perturbed_ambient_pairs(draw):
    d = draw(descriptors())
    return d, fresh(d, {**d.strata, (): draw(pd_diamonds(d.n, connected=True))})


@st.composite
def random_pairs(draw):
    d1 = draw(descriptors())
    return d1, draw(descriptors().filter(lambda d: d.n == d1.n))


class TestCompareBySignatureTables:
    """Equal signature tables answer "equal" with no E_st assembled; every
    answer is the one that assembling both and comparing rows gives."""

    @settings(max_examples=60)
    @given(relabelled_pairs())
    def test_relabelled_copies(self, pair):
        d, copy = pair
        assert d._groups == copy._groups
        assert first_coefficient_difference(d, copy) is None
        assert "_e_st" not in vars(d) and "_e_st" not in vars(copy)
        assert_as_by_rows(d, copy)

    @settings(max_examples=60)
    @given(killed_strata_pairs())
    def test_copies_that_differ_where_a_0_kills_the_strata(self, pair):
        # the tables may differ, the functions do not: the lift answers
        d, copy = pair
        assert first_coefficient_difference(d, copy) is None
        assert_as_by_rows(d, copy)

    @settings(max_examples=60)
    @given(perturbed_ambient_pairs())
    def test_copies_with_a_perturbed_ambient_diamond(self, pair):
        assert_as_by_rows(*pair)

    @settings(max_examples=60)
    @given(random_pairs())
    def test_random_pairs_of_equal_dimension(self, pair):
        assert_as_by_rows(*pair)

    def test_the_crepant_node_pair_still_assembles(self):
        blowup, small = (load_bundle(str(CORPUS / f"node3fold_{name}.json")).descriptor
                         for name in ("blowup", "small"))
        assert blowup._groups != small._groups
        assert first_coefficient_difference(blowup, small) is None
        assert "_e_st" in vars(blowup) and "_e_st" in vars(small)

    def test_both_are_validated_d1_first(self):
        asymmetric = ResolutionDescriptor(2, (), {(): HodgeDiamond(2, {(0, 0): 1, (1, 0): 1})})
        negative = ResolutionDescriptor(2, (("E", -1),), {(): diag(1, 1, 1), ("E",): diag(1, 1)})
        for compare in (first_coefficient_difference, rows_first_coefficient_difference):
            with pytest.raises(DescriptorError, match="conjugation symmetry"):
                compare(fresh(asymmetric), fresh(negative))
            with pytest.raises(DescriptorError, match="negative discrepancy"):
                compare(fresh(negative), fresh(asymmetric))
            with pytest.raises(DescriptorError, match="conjugation symmetry"):
                compare(fresh(asymmetric), fresh(asymmetric))  # equal tables, not valid


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

        assert h22st_fourfold(d) == closed_form_h(d, 2, 2) == stratum_sum_table(d, 4).get((2, 2), 0)
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
