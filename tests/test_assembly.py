"""The grouped E_st assembly against an independent per-stratum reference,
and the once-per-descriptor contract of validation and assembly."""

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stringyhodge import (
    BivariatePoly,
    DenominatorSpec,
    DescriptorError,
    DiamondError,
    HodgeDiamond,
    ResolutionDescriptor,
    StringyFunction,
    a_pq,
    check_pd_identity,
    check_polynomial_consequences,
    check_symmetry,
    closed_form_h,
    conjecture_report,
    crepant_compare,
    exact_divide_test,
    h22st_fourfold,
    load_bundle,
    product_stringy,
    projective_space,
    quadric_surface,
    stringy,
    stringy_e,
    stringy_hodge_table,
    threefold_h22_minus_h11,
)
from stringyhodge import hodge, polyalg
from stringyhodge.cli import main
from stringyhodge.stringy import first_coefficient_difference
from conftest import (
    CORPUS, cross_multiplied_equal, descriptors, diag, expand_w, from_w, random_pd_diamond, w_mul,
)


def reference_assemble(d):
    """E_st one stratum at a time, over the product of all k denominators."""
    positive = [(cid, a) for cid, a in d.components if a >= 1]
    denom = DenominatorSpec(tuple(a + 1 for _, a in positive))
    numerator = BivariatePoly()
    discrepancies = dict(d.components)
    for subset, diamond in d.strata.items():
        if any(discrepancies[cid] == 0 for cid in subset):
            continue
        term = BivariatePoly({(p, q): (-1) ** (p + q) * n for (p, q), n in diamond.h.items()})
        for cid, a in positive:
            m = a + 1
            if cid in subset:
                factor = BivariatePoly({(1, 1): 1, (m, m): -1})  # w - w^m
            else:
                factor = BivariatePoly({(m, m): 1, (0, 0): -1})  # w^m - 1
            term = term * factor
        numerator = numerator + term
    return StringyFunction(numerator, denom)


def grouped_reference_assemble(d):
    """The grouped assembly before the single denominator expansion, verbatim:
    each group's cofactor is expanded anew and multiplied as a
    BivariatePoly.  The new assembly must give the same terms and factors."""
    discrepancies = dict(d.components)
    groups = {}
    for subset, diamond in d.strata.items():
        a = [discrepancies[cid] for cid in subset]
        if 0 in a:
            continue
        signature = tuple(sorted(x + 1 for x in a if x >= 1))
        term = BivariatePoly({(p, q): (-1) ** (p + q) * n for (p, q), n in diamond.h.items()})
        groups[signature] = groups[signature] + term if signature in groups else term
    common = DenominatorSpec()
    for signature in groups:
        common = common.union(DenominatorSpec(signature))
    numerator = BivariatePoly()
    for signature, e_sum in groups.items():
        factor = expand_w(common.cofactor(DenominatorSpec(signature)))
        for m in signature:
            factor = w_mul(factor, {1: 1, m: -1})  # w - w^m
        numerator = numerator + e_sum * from_w(factor)
    return StringyFunction(numerator, common)


def times(p, m):
    """Coefficients of p * (w^m - 1), dense."""
    return [x - y for x, y in zip([0] * m + p, p + [0] * m)]


def expand(spec):
    """Coefficients of prod (w^m - 1) over a DenominatorSpec, dense."""
    out = [1]
    for m in spec.factors:
        out = times(out, m)
    return out


def rowwise_reference_assemble(d):
    """The grouped assembly before Kronecker packing, verbatim: one list of
    w-coefficients per (p, q), each group's factor the common expansion
    divided by its signature (`_over`) and multiplied by w^{m-1} - 1
    (`times`) per m.  Each group's h^{p,q} are summed into a plain dict, one
    stratum at a time, and signed here, so no HodgeDiamond is built."""
    discrepancies = dict(d.components)
    groups = {}
    for subset, diamond in d.strata.items():
        a = [discrepancies[cid] for cid in subset]
        if 0 in a:
            continue
        signature = tuple(sorted(x + 1 for x in a if x >= 1))
        h_sum = groups.setdefault(signature, {})
        for pq, c in diamond.h.items():
            h_sum[pq] = h_sum.get(pq, 0) + c
    common = DenominatorSpec()
    for signature in groups:
        common = common.union(DenominatorSpec(signature))
    full = expand(common)
    rows = {}
    zero = [0] * len(full)
    for signature, h_sum in groups.items():
        factor = polyalg._over(full, signature, len(full) - sum(signature))
        for m in signature:
            factor = times(factor, m - 1)
        sign = (-1) ** len(signature)
        factor = [0] * len(signature) + [sign * x for x in factor]
        for (p, q), c in h_sum.items():
            c *= (-1) ** (p + q)
            rows[p, q] = [x + c * f for x, f in zip(rows.get((p, q), zero), factor)]
    return StringyFunction(polyalg._spread(rows), common)


def reference_pd_verdict(d, f):
    if not d.strata_pd_consistent():
        return None
    r = len(f.denominator.factors)
    shift = d.n + sum(f.denominator.factors)
    inverted = BivariatePoly({(-p, -q): c for (p, q), c in f.numerator.terms.items()})
    transformed = inverted * BivariatePoly({(shift, shift): (-1) ** r})
    return f.numerator == transformed


@st.composite
def negative_controls(draw):
    """Descriptors with one diamond entry or one discrepancy broken; unvalidated."""
    d = draw(descriptors())
    strata = dict(d.strata)
    components = list(d.components)
    if components and draw(st.booleans()):
        i = draw(st.integers(0, len(components) - 1))
        components[i] = (components[i][0], -1)
    else:
        J = draw(st.sampled_from(sorted(strata)))
        dim = strata[J].dim
        p, q = draw(st.integers(0, dim)), draw(st.integers(0, dim))
        h = dict(strata[J].h)
        h[(p, q)] = h.get((p, q), 0) + draw(st.integers(1, 3))
        strata[J] = HodgeDiamond(dim, h)
    return ResolutionDescriptor(d.n, tuple(components), strata, "negative control")


def assert_rows_are_the_split(f):
    """The rows the assembly hands over are the numerator's own split."""
    assert "_slices" in vars(f)  # set by the assembly, not split on demand
    assert vars(f)["_slices"] == StringyFunction(f.numerator, f.denominator)._slices


def assert_agrees_with_reference(d):
    new = stringy._assemble(d)
    assert_rows_are_the_split(new)
    for grouped in (rowwise_reference_assemble(d), grouped_reference_assemble(d)):
        assert new.numerator.terms == grouped.numerator.terms
        assert new.denominator.factors == grouped.denominator.factors
    ref = reference_assemble(d)
    assert cross_multiplied_equal(new, ref)
    assert new.equals(ref)
    bound = 2 * d.n + 2
    assert new.series_coefficients(bound) == ref.series_coefficients(bound)
    assert exact_divide_test(new) == exact_divide_test(ref)
    assert check_symmetry(d) == (ref.numerator == ref.numerator.swap_vars())
    assert check_pd_identity(d) == reference_pd_verdict(d, ref)
    # at most one factor w^m - 1 per component of a stratum, so at most n
    assert all(c <= d.n for c in Counter(new.denominator.factors).values())


class TestAgainstReference:
    @settings(max_examples=80)
    @given(descriptors())
    def test_valid_descriptors(self, d):
        assert_agrees_with_reference(d)
        assert stringy_e(d) is stringy_e(d)

    @settings(max_examples=80)
    @given(negative_controls())
    def test_negative_controls(self, d):
        assert_agrees_with_reference(d)

    def test_denominator_takes_largest_multiplicity(self):
        # signatures (2,), (3,), (2, 3) and (2, 2): w^2 - 1 twice, w^3 - 1 once
        d = ResolutionDescriptor(
            3,
            (("A", 1), ("B", 2), ("C", 1)),
            {
                (): diag(1, 2, 2, 1),
                ("A",): diag(1, 1, 1),
                ("B",): diag(1, 1, 1),
                ("C",): diag(1, 1, 1),
                ("A", "B"): diag(1, 1),
                ("A", "C"): diag(1, 1),
            },
        )
        assert stringy_e(d).denominator.factors == (2, 2, 3)
        assert len(reference_assemble(d).denominator.factors) == 3
        assert_agrees_with_reference(d)


def mixed(scale):
    """Unvalidated: entries of either sign near `scale`, a component with
    a = -1 (no factor) and one with a = 0 (its strata are skipped)."""
    return ResolutionDescriptor(
        2,
        (("A", 1), ("B", -1), ("C", 0), ("D", 2)),
        {
            (): HodgeDiamond(2, {(0, 0): scale, (1, 0): 1 - scale, (2, 2): scale, (1, 1): -3}),
            ("A",): HodgeDiamond(1, {(0, 0): scale, (1, 1): -scale}),
            ("B",): HodgeDiamond(1, {(0, 1): scale - 1}),
            ("C",): HodgeDiamond(1, {(0, 0): scale}),
            ("D",): HodgeDiamond(1, {(1, 0): -scale}),
            ("A", "B"): HodgeDiamond(0, {(0, 0): -scale}),
            ("A", "D"): HodgeDiamond(0, {(0, 0): scale}),
            ("C", "D"): HodgeDiamond(0, {(0, 0): 7}),
        },
        "unvalidated",
    )


def chain(k):
    """k components and the strata of one nested chain of subsets of them,
    in dimension k: up to k factors w^m - 1 of each m in the signatures."""
    ids = [f"E{i:02d}" for i in range(k)]
    strata = {
        tuple(ids[:j]): HodgeDiamond(
            k - j, {(p, p): (-1) ** p * (j + p) for p in range(k - j + 1)}
        )
        for j in range(k + 1)
    }
    return ResolutionDescriptor(k, tuple((cid, 1 + i % 3) for i, cid in enumerate(ids)), strata)


class TestPackedRows:
    """The Kronecker-packed assembly against the row arithmetic it replaced."""

    @pytest.mark.parametrize("size", [1, 2, 4, 8, 9, 16])
    def test_unpack_reads_extreme_digits(self, size):
        top = 1 << (8 * size - 1)
        row = [top - 1, -top, 0, -1, 1, -top, top - 1, -1, -top]
        packed = sum(c << (8 * size * k) for k, c in enumerate(row))
        assert polyalg._unpack(packed, size, len(row)) == row

    def test_digit_bytes_hold_the_bound(self):
        edges = {1: 1, 2**7 - 1: 1, 2**7: 2, 2**15 - 1: 2, 2**15: 4, 2**31 - 1: 4,
                 2**31: 8, 2**63 - 1: 8, 2**63: 9, 2**71: 10}
        assert {bound: polyalg._digit_bytes(bound) for bound in edges} == edges

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "scale", [2**7 - 1, 2**7, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**64 + 1]
    )
    def test_point_keeps_its_entry_at_every_width(self, scale, sign):
        # no factors: the bound is |h| itself, so these sit on each width's edge
        d = ResolutionDescriptor(0, (), {(): HodgeDiamond(0, {(0, 0): sign * scale})})
        assert stringy._assemble(d).numerator.terms == {(0, 0): sign * scale}

    def test_every_width_matches_the_references(self, monkeypatch):
        sizes = []
        unpack = polyalg._unpack

        def recording(packed, size, length):
            sizes.append(size)
            return unpack(packed, size, length)

        monkeypatch.setattr(polyalg, "_unpack", recording)
        for scale in (1, 2**7, 2**15, 2**31, 2**63, 2**64 + 1):
            assert_agrees_with_reference(mixed(scale))
            assert_agrees_with_reference(mixed(-scale))
        assert {1, 2, 4, 8} <= set(sizes) and max(sizes) > 8

    @pytest.mark.parametrize("k", [20, 23])
    def test_many_factors_match_the_references(self, k):
        d = chain(k)
        assert len(stringy._assemble(d).denominator.factors) >= 20
        assert_agrees_with_reference(d)


def full_simplex(rng, n, k):
    """Shaped like the bench's simplex pool: k components with discrepancies
    1, 2, 3 dealt out in turn, and every subset of at most n of them a stratum."""
    ids = [f"E{i}" for i in range(k)]
    discrepancies = [1 + i % 3 for i in range(k)]
    rng.shuffle(discrepancies)
    strata = {(): random_pd_diamond(rng, n, connected=True)}
    for size in range(1, n + 1):
        for J in itertools.combinations(ids, size):
            strata[J] = random_pd_diamond(rng, n - size)
    return ResolutionDescriptor(n, tuple(zip(ids, discrepancies)), strata, f"simplex {n} {k}")


class TestDiagonalRows:
    """E_st's rows come out of the packed assembly, one per diagonal; the
    references above check the same on random descriptors, unvalidated
    controls with a = -1 and a = 0, and long chains."""

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.name)
    def test_corpus(self, path):
        assert_rows_are_the_split(stringy._assemble(load_bundle(str(path)).descriptor))

    @pytest.mark.parametrize("n, k", [(3, 8), (3, 10), (4, 8), (4, 10)])
    def test_simplex_pool_shapes(self, n, k):
        assert_rows_are_the_split(stringy._assemble(full_simplex(random.Random(f"{n} {k}"), n, k)))

    def test_large_discrepancies_are_exact(self):
        # a threefold with a = 10^4 and 10^4 + 1 against Batyrev's sum written
        # out over the two factors; each diagonal spans 2 * 10^4 + 4 digits
        ma, mb = 10**4 + 1, 10**4 + 2
        y = BivariatePoly({(0, 0): 1, (1, 1): 3, (2, 1): -2, (1, 2): -2, (2, 2): 3, (3, 3): 1})
        surface = BivariatePoly(
            {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 2, (2, 1): -1, (1, 2): -1, (2, 2): 1}
        )
        line = BivariatePoly({(0, 0): 1, (1, 1): 1})
        d = ResolutionDescriptor(
            3,
            (("A", ma - 1), ("B", mb - 1)),
            {
                (): HodgeDiamond(3, {(0, 0): 1, (1, 1): 3, (2, 1): 2, (1, 2): 2, (2, 2): 3,
                                     (3, 3): 1}),
                ("A",): HodgeDiamond(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1,
                                         (1, 2): 1, (2, 2): 1}),
                ("B",): HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1}),
                ("A", "B"): HodgeDiamond(1, {(0, 0): 1, (1, 1): 1}),
            },
        )
        assert not d.validate() and d.strata_pd_consistent()

        def w(*terms):  # sum of c * (uv)^e over the (e, c)
            return BivariatePoly({(e, e): c for e, c in terms})

        plane = BivariatePoly({(0, 0): 1, (1, 1): 1, (2, 2): 1})
        numerator = (
            y * w((ma, 1), (0, -1)) * w((mb, 1), (0, -1))
            + surface * w((1, 1), (ma, -1)) * w((mb, 1), (0, -1))
            + plane * w((1, 1), (mb, -1)) * w((ma, 1), (0, -1))
            + line * w((1, 1), (ma, -1)) * w((1, 1), (mb, -1))
        )
        by_hand = StringyFunction(numerator, DenominatorSpec((ma, mb)))
        f = stringy._assemble(d)
        assert f.denominator == by_hand.denominator
        assert f.numerator == by_hand.numerator
        assert_rows_are_the_split(f)
        assert exact_divide_test(f) == exact_divide_test(by_hand)
        assert f.series_coefficients(8) == by_hand.series_coefficients(8)


class TestOncePerDescriptor:
    def test_conjecture_report_validates_loaded_descriptor_once(self, corpus, count_calls):
        calls = count_calls(ResolutionDescriptor, "validate")
        d = load_bundle(str(corpus / "burkhardt_times_p1.json")).descriptor
        report = conjecture_report(d)
        assert report.all_nonnegative()
        assert calls["validate"] == 1

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (("compute", "burkhardt_x0.json"), 1),
            (("check", "burkhardt_times_p1.json"), 1),
            (("compare", "node3fold_blowup.json", "node3fold_small.json"), 2),
        ],
    )
    def test_cli_validates_and_assembles_once(self, argv, loaded, corpus, capsys, count_calls):
        validations = count_calls(ResolutionDescriptor, "validate")
        assemblies = count_calls(stringy, "_assemble")
        command, *names = argv
        assert main([command, *(str(corpus / name) for name in names)]) == 0
        capsys.readouterr()
        assert validations["validate"] == loaded
        assert assemblies["_assemble"] == loaded

    @pytest.mark.parametrize("name", ["burkhardt_times_p1.json", "synthetic_negative_fourfold.json"])
    def test_cli_compute_divides_once(self, name, corpus, capsys, count_calls):
        # the Hodge table and the polynomial consequences share one quotient,
        # for a polynomial E_st and for one that is not
        divisions = count_calls(stringy, "exact_divide_test")
        assert main(["compute", str(corpus / name), "--format", "machine"]) == 0
        capsys.readouterr()
        assert divisions["exact_divide_test"] == 1

    @pytest.mark.parametrize(
        "name",
        ["burkhardt_times_p1.json", "synthetic_negative_fourfold.json", "smooth_p3.json",
         "chain_snc.json"],
    )
    def test_cli_compute_splits_e_st_into_diagonals_once(self, name, corpus, capsys, count_calls):
        # the assembly unpacks each diagonal once and hands the rows on, so the
        # series and the exact division read them and the numerator is never
        # split: count the unpacks and the computations behind the cached _slices
        splits = count_calls(polyalg.StringyFunction.__dict__["_slices"], "func")
        unpacks = count_calls(polyalg, "_unpack")
        assert main(["compute", str(corpus / name), "--format", "machine"]) == 0
        numerator = json.loads(capsys.readouterr().out)["e_function"]["numerator"]
        diagonals = {int(p) - int(q) for p, q in (key.split(",") for key in numerator)}
        assert splits["func"] == 0
        assert unpacks["_unpack"] == len(diagonals) > 0

    @pytest.mark.parametrize(
        "name, denominator",
        [("burkhardt_times_p1.json", True), ("synthetic_negative_fourfold.json", True),
         ("node3fold_blowup.json", True), ("smooth_p3.json", False)],
    )
    def test_cli_forms_the_numerator_only_where_it_is_read(self, name, denominator, corpus,
                                                           capsys, count_calls):
        # E_st is kept as its rows: compute prints the numerator and both identity
        # checks read it, formed once; check reads rows alone, unless E_st has
        # no denominator and its numerator is the polynomial check reports
        spreads = count_calls(polyalg.StringyFunction.__dict__["numerator"], "func")
        for command, formed in (("compute", 1), ("check", 0 if denominator else 1)):
            d = load_bundle(str(corpus / name)).descriptor
            assert bool(stringy_e(d).denominator.factors) is denominator
            spreads.clear()
            assert main([command, str(corpus / name), "--format", "machine"]) in (0, 1)
            capsys.readouterr()
            assert spreads["func"] == formed

    def test_compare_forms_numerators_only_for_unequal_rows(self, corpus, capsys, count_calls):
        path = str(corpus / "burkhardt_times_p1.json")
        d = load_bundle(path).descriptor
        ids = {cid: f"R{len(d.components) - i}" for i, (cid, _) in enumerate(d.components)}
        relabelled = ResolutionDescriptor(
            d.n, tuple((ids[cid], a) for cid, a in d.components),
            {tuple(sorted(map(ids.get, J))): s for J, s in d.strata.items()})
        ambient = dict(d.strata[()].h)
        for pq in ((1, 1), (d.n - 1, d.n - 1)):
            ambient[pq] += 1
        perturbed = ResolutionDescriptor(
            d.n, d.components, {**d.strata, (): HodgeDiamond(d.n, ambient)})
        spreads = count_calls(polyalg.StringyFunction.__dict__["numerator"], "func")
        assert main(["compare", path, path, "--format", "machine"]) == 0
        assert json.loads(capsys.readouterr().out)["equal"] is True
        assert first_coefficient_difference(d, relabelled) is None
        assert spreads["func"] == 0  # equal denominators and rows: equal numerators
        assert first_coefficient_difference(d, perturbed) == (1, 1, 17, 18)  # h^{1,1}_st + 1
        assert spreads["func"] == 2  # each side formed once, for the lift

    def test_level_sums_computed_once(self, count_calls):
        d = ResolutionDescriptor(
            3,
            (("A", 1), ("B", 1)),
            {(): diag(1, 3, 3, 1), ("A",): quadric_surface(), ("B",): diag(1, 1, 1)},
        )
        sums = count_calls(ResolutionDescriptor.__dict__["_levels"], "func")
        assert a_pq(d, 2, 2) == 3 - 3
        assert sums["func"] == 1  # D(0), D(1) = D_A + D_B, summed once
        assert [a_pq(d, p, p) for p in range(4)] == [1, 3 - 2, 3 - 3, 1 - 2]
        assert d.level(1) == quadric_surface() + diag(1, 1, 1)
        assert d.level(0) is d.strata[()]
        assert sums["func"] == 1

    def test_a_level_mixing_dimensions_is_no_disjoint_union(self):
        # unvalidated: B's stratum has the wrong dimension
        d = ResolutionDescriptor(
            2, (("A", 1), ("B", 1)), {(): diag(1, 1, 1), ("A",): diag(1, 1), ("B",): diag(1)})
        with pytest.raises(DiamondError, match="disjoint union requires equal dimensions"):
            d.level(1)

    def test_strata_are_read_only(self):
        d = ResolutionDescriptor(2, (), {(): diag(1, 1, 1)})
        with pytest.raises(TypeError):
            d.strata[()] = diag(1, 2, 1)
        assert d.strata == {(): diag(1, 1, 1)}


@st.composite
def duality_breaks(draw):
    """A descriptor with at most one stratum broken, and whether to validate it
    before asking: a negative entry, broken conjugation, broken duality (the
    same entry added on both sides of the diagonal) or h^{0,0} = 0."""
    d = draw(st.one_of(descriptors(), negative_controls()))
    strata = dict(d.strata)
    J = draw(st.sampled_from(sorted(strata)))
    dim = strata[J].dim
    h = dict(strata[J].h)
    p, q = draw(st.integers(0, dim)), draw(st.integers(0, dim))
    kind = draw(st.sampled_from(["none", "negative", "conjugation", "duality", "h00"]))
    if kind == "negative":
        h[(p, q)] = -draw(st.integers(1, 3))
    elif kind == "conjugation":
        h[(p, q)] = h.get((p, q), 0) + 1
    elif kind == "duality":
        h[(p, q)] = h.get((p, q), 0) + 1
        h[(q, p)] = h.get((q, p), 0) + (p != q)
    elif kind == "h00":
        h.pop((0, 0), None)
    strata[J] = HodgeDiamond(dim, h)
    return ResolutionDescriptor(d.n, d.components, strata, kind), draw(st.booleans())


class TestDualityRecord:
    @settings(max_examples=150)
    @given(duality_breaks())
    def test_strata_pd_consistent_matches_per_stratum_validate(self, case):
        d, validated = case
        if validated:
            d.validate()
        failing = [J for J, s in d.strata.items() if hodge.validate(s, smooth_projective=True)]
        assert d.strata_pd_consistent() == all(
            not hodge.validate(s, smooth_projective=True) for s in d.strata.values()
        )
        # the record is the first failing stratum itself, for a verdict to name
        assert d._pd_failure == (failing[0] if failing else None)

    @pytest.mark.parametrize("validated", [False, True])
    def test_record_is_a_stratum_only_validate_rejects(self, validated):
        # h^{1,1} = -1 on a surface keeps conjugation and duality, so only
        # validate()'s own record makes D_E fail; D_F, later, breaks duality
        d = ResolutionDescriptor(
            3,
            (("E", 1), ("F", 1)),
            {
                (): diag(1, 2, 2, 1),
                ("E",): diag(1, -1, 1),
                ("F",): HodgeDiamond(2, {(0, 0): 1, (1, 1): 1}),
            },
        )
        if validated:
            assert d.validate() == ["stratum ('E',): negative entry h^{1,1} = -1"]
        assert not hodge.validate(d.strata[("F",)]) and hodge.validate(d.strata[("F",)], True)
        assert d._pd_failure == ("E",)
        assert check_pd_identity(d) is None

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.name)
    def test_duality_is_scanned_only_by_the_identity_check(self, path, capsys, count_scans):
        # check and compare never read the record; compute builds it once, at
        # most one duality scan per stratum, and later reads keep it
        scans = count_scans()
        code = main(["check", str(path)])
        assert main(["compare", str(path), str(path)]) == 0
        capsys.readouterr()
        assert code in (0, 1) and scans[True] == 0
        assert main(["compute", str(path)]) == 0
        capsys.readouterr()
        strata = len(json.loads(path.read_text(encoding="utf-8"))["strata"])
        assert 0 < scans[True] <= strata
        d = load_bundle(str(path)).descriptor
        scans.clear()
        for _ in range(2):
            check_pd_identity(d)
        assert 0 < scans[True] <= strata

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.name)
    def test_cli_compute_validates_each_diamond_once(self, path, capsys, count_scans):
        # once per diamond object, whoever holds it: the loader gives every
        # sparse map spelled alike at one dimension one object, in strata, SNC
        # components and fibers alike (a dense matrix is never shared); check
        # scans no duality, compute at most once per object
        doc = json.loads(path.read_text(encoding="utf-8"))
        n = doc["dim"]
        held = [(n - key.count(",") - bool(key), h) for key, h in doc["strata"].items()]
        held += [(n - int(r), c["diamond"])
                 for r, comps in doc.get("snc", {}).get("levels", {}).items()
                 for c in comps if "diamond" in c]
        held += [(2, c["diamond"]) for f in doc.get("fibers", []) for c in f["components"]]
        diamonds = len({(dim, json.dumps(h)) if isinstance(h, dict) else i
                        for i, (dim, h) in enumerate(held)})
        scans = count_scans()
        assert main(["check", str(path)]) in (0, 1)
        assert scans == {False: diamonds}
        scans.clear()
        assert main(["compute", str(path)]) == 0
        capsys.readouterr()
        assert scans[False] == diamonds and scans[True] <= len(doc["strata"])


BROKEN = ResolutionDescriptor(
    3,
    (("E", 1),),
    {(): HodgeDiamond(3, {(0, 0): 1, (1, 0): 1, (3, 3): 1}), ("E",): quadric_surface()},
    "asymmetric ambient diamond",
)

VALIDATING = {
    "stringy_e": lambda d: stringy_e(d),
    "stringy_hodge_table": lambda d: stringy_hodge_table(d),
    "check_polynomial_consequences": lambda d: check_polynomial_consequences(d),
    "closed_form_h": lambda d: closed_form_h(d, 0, 0),
    "a_pq": lambda d: a_pq(d, 1, 1),
    "h22st_fourfold": lambda d: h22st_fourfold(d),
    "threefold_h22_minus_h11": lambda d: threefold_h22_minus_h11(d),
    "product_stringy": lambda d: product_stringy(d, projective_space(0)),
    "conjecture_report": lambda d: conjecture_report(d),
    "crepant_compare": lambda d: crepant_compare(d, d),
    "first_coefficient_difference": lambda d: first_coefficient_difference(d, d),
}


@pytest.mark.parametrize("entry", sorted(VALIDATING))
def test_invalid_descriptor_raises_at_every_entry_point(entry):
    # the unvalidated identity checks assemble E_st first; that must not
    # let the descriptor through, and a failed validation is not remembered
    assert not check_symmetry(BROKEN)
    for _ in range(2):
        with pytest.raises(DescriptorError, match="conjugation symmetry"):
            VALIDATING[entry](BROKEN)
