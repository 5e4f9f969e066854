import itertools
import json
from fractions import Fraction
from math import comb, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from stringyhodge import (
    HodgeDiamond,
    SncComplexData,
    SncComponent,
    SncDataError,
    coboundary_h0,
    exact_rank,
    projective_space,
    purity_consequence_check,
    quadric_surface,
    sncweights,
    weight_graded_dims,
)
from stringyhodge.descriptors import _parse_snc
from stringyhodge.sncweights import matrix_mul
from conftest import diag

Q = quadric_surface()


def complex_from_faces(ids, faces):
    """SncComplexData for a simplicial dual complex given by its face subsets."""
    faces = {tuple(sorted(f)) for f in faces} | {(i,) for i in ids}
    levels = {}
    index = {}
    for r in range(1, max(len(f) for f in faces) + 1):
        level = sorted(f for f in faces if len(f) == r)
        comps = []
        for J in level:
            face_idx = tuple(
                index[J[:t] + J[t + 1 :]] for t in range(r)
            ) if r >= 2 else ()
            comps.append(SncComponent(subset=J, faces=face_idx))
        for i, J in enumerate(level):
            index[J] = i
        levels[r] = tuple(comps)
    return SncComplexData(levels=levels)


def brute_force_cohomology(ids, faces, degree):
    """Independent oracle: simplicial cohomology dimension over Q via sympy.

    Builds coboundary matrices directly from the subsets, with no shared code
    with the package's incidence machinery.
    """
    faces = {tuple(sorted(f)) for f in faces} | {(i,) for i in ids}
    by_size = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(f)
    for size in by_size:
        by_size[size].sort()

    def delta(r):
        # map from r-subsets to (r+1)-subsets
        lo, hi = by_size.get(r, []), by_size.get(r + 1, [])
        mat = sympy.zeros(len(hi), len(lo))
        for row, big in enumerate(hi):
            for t in range(len(big)):
                small = big[:t] + big[t + 1 :]
                mat[row, lo.index(small)] += (-1) ** t
        return mat

    dim = len(by_size.get(degree + 1, []))
    rank_out = delta(degree + 1).rank()
    rank_in = delta(degree).rank() if degree >= 1 else 0
    return dim - rank_out - rank_in


TRIANGLE = (["A", "B", "C"], [("A", "B"), ("A", "C"), ("B", "C")])
TRIANGLE_FILLED = (["A", "B", "C"], TRIANGLE[1] + [("A", "B", "C")])
CHAIN = (["A", "B"], [("A", "B")])


class TestCoboundaryH0:
    def test_two_components_one_curve(self):
        data = complex_from_faces(*CHAIN)
        mat = coboundary_h0(data, 1)
        assert len(mat) == 1 and len(mat[0]) == 2
        assert sorted(mat[0]) == [Fraction(-1), Fraction(1)]

    def test_single_component(self):
        data = complex_from_faces(["A"], [])
        assert coboundary_h0(data, 1) == []

    def test_levels_start_at_one(self):
        with pytest.raises(SncDataError, match="levels start at r = 1"):
            coboundary_h0(complex_from_faces(*CHAIN), 0)

    def test_triangle_matches_hollow_triangle_boundary(self):
        data = complex_from_faces(*TRIANGLE)
        mat = coboundary_h0(data, 1)
        assert len(mat) == 3 and all(len(row) == 3 for row in mat)
        for row in mat:
            assert sorted(row) == [Fraction(-1), Fraction(0), Fraction(1)]
        assert exact_rank(mat, 3) == 2

    def test_inconsistent_incidence_rejected(self):
        bad = SncComplexData(
            levels={
                1: (SncComponent(("A",)), SncComponent(("B",))),
                2: (SncComponent(("A", "B"), faces=(0, 0)),),
            }
        )
        first = "level 2 component 0: face 0 lands in subset ('A',), expected ('B',)"
        assert bad.validate() == [first]
        with pytest.raises(SncDataError) as err:
            coboundary_h0(bad, 1)
        assert str(err.value) == first

    def test_subset_repeating_an_id_rejected(self):
        # both faces of D_A ∩ D_A land in D_A, so the face rule alone passes it
        data = SncComplexData(
            levels={1: (SncComponent(("A",)),), 2: (SncComponent(("A", "A"), faces=(0, 0)),)}
        )
        assert data.validate() == ["level 2 component 0: subset repeats an id"]
        with pytest.raises(SncDataError, match="subset repeats an id"):
            weight_graded_dims(data, 0, 1, 0, 0)
        unsorted_and_repeated = SncComplexData(
            levels={1: (SncComponent(("A",)), SncComponent(("B",))),
                    3: (SncComponent(("B", "A", "B")),)}
        )
        assert unsorted_and_repeated.validate()[:2] == [
            "level 3 component 0: subset not sorted", "level 3 component 0: subset repeats an id"
        ]

    def test_level_one_has_no_faces(self):
        data = SncComplexData(levels={1: (SncComponent(("A",), faces=(5, 7)),)})
        assert data.validate() == ["level 1 component 0: expected 0 faces, got 2"]


def triangle_with(level_2=None, level_3=None):
    """Components A, B, C of D(1) (indices 0, 1, 2), with the given D(2) and D(3)."""
    levels = {1: tuple(SncComponent((i,)) for i in "ABC")}
    if level_2:
        levels[2] = tuple(SncComponent(tuple(subset), faces=faces) for subset, faces in level_2)
    if level_3:
        levels[3] = tuple(SncComponent(tuple(subset), faces=faces) for subset, faces in level_3)
    return SncComplexData(levels=levels)


EDGES = [("AB", (1, 0)), ("AC", (2, 0)), ("BC", (2, 1))]  # as the face rule wants


class TestFaceRuleMessages:
    """A component that breaks the face rule is reported face by face, in order."""

    def test_face_index_out_of_range_is_not_wrapped(self):
        # -1 would index C, the face BC wants, and 3 would raise
        data = triangle_with([("AB", (1, 0)), ("AC", (2, 3)), ("BC", (-1, 1))])
        assert data.validate() == [
            "level 2 component 1: face index 3 out of range",
            "level 2 component 2: face index -1 out of range",
        ]

    def test_faces_in_the_wrong_order_are_reported_at_each_wrong_face(self):
        data = triangle_with([("AB", (0, 1)), *EDGES[1:]], [("ABC", (2, 0, 1))])
        assert data.validate() == [
            "level 2 component 0: face 0 lands in subset ('A',), expected ('B',)",
            "level 2 component 0: face 1 lands in subset ('B',), expected ('A',)",
            "level 3 component 0: face 1 lands in subset ('A', 'B'), expected ('A', 'C')",
            "level 3 component 0: face 2 lands in subset ('A', 'C'), expected ('A', 'B')",
        ]

    def test_subset_of_the_wrong_size_keeps_its_face_messages(self):
        data = triangle_with([("ABC", (1, 0)), ("A", (0, 1))])
        assert data.validate() == [
            "level 2 component 0: subset size 3 != 2",
            "level 2 component 0: face 0 lands in subset ('B',), expected ('B', 'C')",
            "level 2 component 0: face 1 lands in subset ('A',), expected ('A', 'C')",
            "level 2 component 1: subset size 1 != 2",
            "level 2 component 1: face 0 lands in subset ('A',), expected ()",
            "level 2 component 1: face 1 lands in subset ('B',), expected ('A',)",
        ]

    @pytest.mark.parametrize("subset", [["A", "B"], "AB"], ids=["list", "str"])
    def test_subset_that_is_not_a_tuple_keeps_its_face_messages(self, subset):
        # built in code, not loaded: each face's expected slice is a list or a string
        levels = {1: (SncComponent(("A",)), SncComponent(("B",))),
                  2: (SncComponent(subset, faces=(1, 0)),)}
        assert SncComplexData(levels=levels).validate() == [
            "level 2 component 0: subset not sorted",
            f"level 2 component 0: face 0 lands in subset ('B',), expected {subset[1:]}",
            f"level 2 component 0: face 1 lands in subset ('A',), expected {subset[:1]}",
        ]

    def test_the_filled_triangle_keeps_the_rule(self):
        assert triangle_with(EDGES, [("ABC", (2, 1, 0))]).validate() == []


class TestValuesBuiltInCode:
    """Values that once raised a bare TypeError or ValueError, or passed."""

    @pytest.mark.parametrize("make, message", [
        (lambda: SncComplexData(levels=None), "levels None is not a dict"),
        (lambda: SncComplexData({}, None), "user_maps None is not a dict"),
        (lambda: SncComplexData({}, {"2,1,1": []}),
         "user map key '2,1,1' is not a triple (k, p, q) of ints"),
        (lambda: SncComplexData({}, {(2, 1): []}),
         "user map key (2, 1) is not a triple (k, p, q) of ints"),
        (lambda: SncComplexData({}, {(2, 1, True): []}),
         "user map key (2, 1, True) is not a triple (k, p, q) of ints"),
    ], ids=["levels None", "user_maps None", "key as written in JSON", "pair", "bool"])
    def test_the_constructor_names_the_field(self, make, message):
        with pytest.raises(SncDataError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize("levels, message", [
        ({1: (SncComponent(("A",)), SncComponent((1,)))},
         "level 1 component 1: subset names an id that is not a string"),
        ({1: (SncComponent(("A",)),), 2: (SncComponent(("A", 1), faces=(0, 0)),)},
         "level 2 component 0: subset names an id that is not a string"),
    ], ids=["level 1", "mixed with a str"])
    def test_an_id_that_is_not_a_string_is_the_one_problem(self, levels, message):
        # ("A",) and (1,) once validated to [], ("A", 1) raised TypeError from <
        data = SncComplexData(levels)
        assert data.validate() == [message]
        with pytest.raises(SncDataError) as err:
            weight_graded_dims(data, 0, 0, 0, 0)
        assert str(err.value) == message

    def test_a_face_that_is_not_an_int_is_out_of_range(self):
        # "x" once raised TypeError from <=; True would index level 1 as 1
        levels = {1: (SncComponent(("A",)), SncComponent(("B",))),
                  2: (SncComponent(("A", "B"), faces=("x", True)),)}
        assert SncComplexData(levels).validate() == [
            "level 2 component 0: face index 'x' out of range",
            "level 2 component 0: face index True out of range",
        ]


class TestWeightGradedDims:
    def test_triangle_circle(self):
        data = complex_from_faces(*TRIANGLE)
        assert weight_graded_dims(data, 0, 1, 0, 0) == 1

    def test_chain_contractible(self):
        data = complex_from_faces(*CHAIN)
        assert weight_graded_dims(data, 0, 1, 0, 0) == 0

    def test_negative_l_rejected(self):
        with pytest.raises(SncDataError, match="l must be nonnegative"):
            weight_graded_dims(complex_from_faces(*CHAIN), 0, -1, 0, 0)

    @pytest.mark.parametrize(
        "triangles, betti",
        [
            # the 6-vertex real projective plane: a wrong face sign gives H^2 != 0
            ([(1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
              (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6)], [1, 0, 0]),
            # the 7-vertex torus
            ([tuple(sorted((i % 7 + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1))) for i in range(7)]
             + [tuple(sorted((i % 7 + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1))) for i in range(7)],
             [1, 2, 1]),
        ],
        ids=["rp2", "torus"],
    )
    def test_triangulated_surface_gives_its_rational_betti_numbers(self, triangles, betti):
        faces = {
            tuple(f"V{i}" for i in face)
            for triangle in triangles
            for face in itertools.combinations(triangle, 2)
        } | {tuple(f"V{i}" for i in triangle) for triangle in triangles}
        ids = sorted({v for face in faces for v in face})
        data = complex_from_faces(ids, faces)
        assert [weight_graded_dims(data, 0, l, 0, 0) for l in range(3)] == betti

    def test_single_component_recovers_own_hpq(self):
        data = SncComplexData(
            levels={1: (SncComponent(("A",), Q),)},
            user_maps={(2, 1, 1): ()},
        )
        assert weight_graded_dims(data, 2, 0, 1, 1) == Q.hpq(1, 1)

    def test_missing_maps_is_an_error_not_a_guess(self):
        data = complex_from_faces(*CHAIN)
        with pytest.raises(SncDataError, match="no restriction matrices"):
            weight_graded_dims(data, 2, 0, 1, 1)


class TestBruteForceOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_h0_row_matches_simplicial_cohomology(self, data):
        n = data.draw(st.integers(1, 8))
        ids = [f"V{i}" for i in range(n)]
        pairs = list(itertools.combinations(ids, 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True)) if pairs else []
        triples = [
            t
            for t in itertools.combinations(ids, 3)
            if all(tuple(sorted(p)) in {tuple(sorted(e)) for e in edges}
                   for p in itertools.combinations(t, 2))
        ]
        chosen_triples = data.draw(
            st.lists(st.sampled_from(triples), max_size=4, unique=True)
        ) if triples else []
        faces = list(edges) + list(chosen_triples)
        cx = complex_from_faces(ids, faces)
        for l in range(0, 3):
            assert weight_graded_dims(cx, 0, l, 0, 0) == brute_force_cohomology(
                ids, faces, l
            )


class TestUserMaps:
    def _two_surface_data(self, delta):
        return SncComplexData(
            levels={
                1: (SncComponent(("A",), Q), SncComponent(("B",), Q)),
                2: (SncComponent(("A", "B"), diag(1, 1), faces=(1, 0)),),
            },
            user_maps={(2, 1, 1): (delta,)},
        )

    def test_shape_mismatch_detected(self):
        bad = self._two_surface_data([[Fraction(1), Fraction(0)]])
        assert any("shape" in p for p in bad.validate())

    def test_weight_dims_from_user_maps(self):
        # restriction of the four H^{1,1} classes onto the shared curve
        data = self._two_surface_data(
            [[Fraction(1), Fraction(1), Fraction(-1), Fraction(-1)]]
        )
        assert weight_graded_dims(data, 2, 0, 1, 1) == 3
        assert weight_graded_dims(data, 2, 1, 1, 1) == 0

    def test_empty_map_fits_only_a_zero_dimensional_target(self):
        assert self._two_surface_data([]).validate() == [
            "user map (2,1,1) delta_1: shape 0x0 does not match declared dimensions 1x4"
        ]
        point = SncComplexData(
            levels={
                1: (SncComponent(("A",), Q), SncComponent(("B",), Q)),
                2: (SncComponent(("A", "B"), diag(1), faces=(1, 0)),),
            },
            user_maps={(2, 1, 1): ([],)},
        )
        assert point.validate() == []
        assert weight_graded_dims(point, 2, 0, 1, 1) == 4

    def test_composition_must_vanish(self, tmp_path, capsys):
        # divisor A has two components A1, A2 (columns 0, 1 of delta_1), and
        # every face lands in the subset it should; but AB meets A1 and AC
        # meets A2, so the faces of ABC route through both and the ABC row
        # of delta_2 . delta_1 is BC - AC + AB = (C - B) - (C - A2) + (B - A1)
        levels = {
            "1": [{"subset": ["A"]}, {"subset": ["A"]}, {"subset": ["B"]}, {"subset": ["C"]}],
            "2": [{"subset": ["A", "B"], "faces": [2, 0]},
                  {"subset": ["A", "C"], "faces": [3, 1]},
                  {"subset": ["B", "C"], "faces": [3, 2]}],
            "3": [{"subset": ["A", "B", "C"], "faces": [2, 1, 0]}],
        }
        decoded = json.loads(json.dumps({"levels": levels}), object_pairs_hook=tuple)
        data = _parse_snc(decoded, 3, "snc", {}, {})  # loaded, not yet validated
        delta_1, delta_2 = data._h0_chain
        assert matrix_mul(delta_2, delta_1) == [[-1, 1, 0, 0]]
        assert data.validate() == ["delta_2 . delta_1 != 0 on the H^0 row"]
        with pytest.raises(SncDataError, match=r"delta_2 \. delta_1 != 0 on the H\^0 row"):
            coboundary_h0(data, 1)

        from stringyhodge.cli import main

        path = tmp_path / "doc.json"
        doc = {"dim": 3, "strata": {"": {"0,0": 1, "1,1": 1, "2,2": 1, "3,3": 1}},
               "snc": {"levels": levels}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["compute", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}.snc: delta_2 . delta_1 != 0 on the H^0 row\n"

    def test_h0_user_map_rejected_once(self):
        # whatever is supplied for (0,0,0), the problem is the key itself
        for mats in ((), ([[Fraction(1)]],), cech(["A", "B", "C"], 3)[:1] * 2):
            data = SncComplexData(
                levels=complex_from_faces(*TRIANGLE).levels, user_maps={(0, 0, 0): mats}
            )
            assert data.validate() == [
                "user map (0,0,0): the H^0 row is built from the incidence data"
            ]


ASYMMETRIC = {"0,0": 1, "1,0": 1, "1,1": 2, "2,2": 1}  # h^{1,0} = 1 but h^{0,1} = 0
NEGATIVE = {"0,0": -1, "1,1": 2, "2,2": 1}


class TestComponentDiamonds:
    """A component diamond passes `hodge.validate`, as a stratum's does."""

    @pytest.mark.parametrize("diamond, problem", [
        (ASYMMETRIC, "conjugation symmetry broken: h^{1,0} = 1 but h^{0,1} = 0"),
        (NEGATIVE, "negative entry h^{0,0} = -1"),
    ], ids=["asymmetric", "negative"])
    def test_bad_diamond_in_a_corpus_file_exits_2(self, diamond, problem, corpus, tmp_path,
                                                   capsys):
        from stringyhodge.cli import main

        doc = json.loads((corpus / "chain_snc.json").read_text(encoding="utf-8"))
        doc["snc"]["levels"]["1"][0]["diamond"] = diamond
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["compute", str(path), "--format", "machine"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}.snc: level 1 component 0: {problem}\n"

    def test_each_distinct_diamond_is_validated_once(self, count_scans):
        bad = HodgeDiamond(2, {(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 2): 1})
        data = SncComplexData(levels={
            1: (SncComponent(("A",), bad), SncComponent(("B",), bad), SncComponent(("C",))),
            2: (SncComponent(("A", "B"), diag(1, 1), faces=(1, 0)),),
        })
        scans = count_scans()
        problem = "conjugation symmetry broken: h^{1,0} = 1 but h^{0,1} = 0"
        assert data.validate() == [
            f"level 1 component 0: {problem}", f"level 1 component 1: {problem}"
        ]
        assert scans == {False: 2}  # bad and the curve's; none for the missing diamond
        with pytest.raises(SncDataError, match="level 1 component 0: conjugation"):
            weight_graded_dims(data, 0, 1, 0, 0)
        assert scans == {False: 2}  # a failed validation is redone, the diamonds' verdicts kept


class TestPurityConsequence:
    def test_zero_row_trivially_exact(self):
        # isolated surface singularity on a threefold: nothing in degree >= 3
        data = SncComplexData(
            levels={1: (SncComponent(("A",), Q),)},
            user_maps={(3, 2, 1): ()},
        )
        report = purity_consequence_check(data, n=3, s=0)
        assert report["all_exact"]
        assert report["rows"][(3, 2, 1)]["h_pq_D"] == Q.hpq(2, 1)

    def test_circle_obstruction_reported(self):
        data = SncComplexData(
            levels={
                1: (SncComponent(("A",), Q), SncComponent(("B",), Q), SncComponent(("C",), Q)),
                2: (
                    SncComponent(("A", "B"), diag(1, 1), faces=(1, 0)),
                    SncComponent(("A", "C"), diag(1, 1), faces=(2, 0)),
                    SncComponent(("B", "C"), diag(1, 1), faces=(2, 1)),
                ),
            },
        )
        report = purity_consequence_check(data, n=0, s=0)
        row = report["rows"][(0, 0, 0)]
        assert not row["exact"]
        assert row["failing_spots"] == [(1, 1)]  # the H^1 of the circle survives

    def test_h0_row_scanned_when_its_degree_reaches_the_threshold(self):
        chain = complex_from_faces(*CHAIN)  # contractible: exact, h^0(D) = 2 - 1
        report = purity_consequence_check(chain, n=0, s=0)
        assert report["rows"] == {(0, 0, 0): {"exact": True, "failing_spots": [], "h_pq_D": 1}}
        assert purity_consequence_check(chain, n=1, s=0)["rows"] == {}

    def test_single_component_always_exact(self):
        data = SncComplexData(
            levels={1: (SncComponent(("A",), Q),)},
            user_maps={(4, 2, 2): ()},
        )
        assert purity_consequence_check(data, n=3, s=1)["all_exact"]


class TestExactRank:
    def test_matches_sympy_on_random_matrices(self):
        import random

        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randint(0, 5)
            cols = rng.randint(1, 5)
            mat = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
            expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in mat]).rank() if rows else 0
            assert exact_rank(cleared(mat), cols) == expected

    def test_ragged_rejected(self):
        with pytest.raises(SncDataError):
            exact_rank([[Fraction(1)], [Fraction(1), Fraction(2)]], 1)


def cleared(m):
    """The integer form of a rational matrix, made where a map enters the SNC layer."""
    return SncComplexData(levels={}, user_maps={(1, 1, 0): (m,)}).user_maps[(1, 1, 0)][0]


def dense_product(a, b):
    """Reference product: the plain triple loop over every entry."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum((row[i] * b[i][j] for i in range(inner)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def sympy_rank(mat, ncols):
    flat = [sympy.Rational(x.numerator, x.denominator) for row in mat for x in row]
    return sympy.Matrix(len(mat), ncols, flat).rank()


# mostly zeros, as in incidence matrices, with non-unit and fractional entries
sparse_entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)


# mostly zeros, then +-1, then integers of any size up to 1000
mostly_zero_ints = st.one_of(
    *[st.just(Fraction(0))] * 4,
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-1000, 1000)),
)


@st.composite
def matrices(draw, nrows=st.integers(0, 7), ncols=st.integers(0, 7), entries=sparse_entries):
    rows, cols = draw(nrows), draw(ncols)
    entry_rows = st.lists(entries, min_size=cols, max_size=cols)
    return draw(st.lists(entry_rows, min_size=rows, max_size=rows)), cols


rationals = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=12))


class TestIntegral:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), max_size=4), st.booleans())
    def test_matches_the_per_entry_formula_in_fresh_rows(self, m, all_ints):
        if all_ints:
            m = [[int(x) for x in row] for row in m]
        scale = lcm(*(x.denominator for row in m for x in row))
        expected = [[x.numerator * (scale // x.denominator) for x in row] for row in m]
        out = sncweights._integral(m)
        assert out == expected
        assert all(type(x) is int for row in out for x in row)
        data = SncComplexData(levels={}, user_maps={(1, 1, 0): (m,)})
        for row in m:  # the input, changed afterwards, leaves the kept map alone
            row.append(1)
            row[0] = Fraction(1, 7)
        m.append([5, 5, 5])
        assert data.user_maps[(1, 1, 0)] == (expected,)

    @pytest.mark.parametrize("x", [0.5, 1.0, "1", None, True])
    def test_an_entry_that_is_not_an_int_or_a_fraction_is_rejected(self, x):
        # a bool is not an int here, as for a diamond's entries
        with pytest.raises(SncDataError) as err:
            SncComplexData(levels={}, user_maps={(2, 1, 1): [[[x, 1]]]})
        assert str(err.value) == f"user map (2,1,1): entry {x!r} is neither an int nor a Fraction"

    @pytest.mark.parametrize("row", [(1, 1), "11", None])
    def test_a_row_that_is_not_a_list_is_rejected(self, row):
        with pytest.raises(SncDataError) as err:
            SncComplexData(levels={}, user_maps={(2, 1, 1): [[[1, 1], row]]})
        assert str(err.value) == f"user map (2,1,1): row {row!r} is not a list"


    def test_a_one_shot_iterator_of_rows_is_kept(self):
        data = SncComplexData(levels={}, user_maps={(2, 1, 1): [(r for r in [[1, 2]])]})
        assert data.user_maps[(2, 1, 1)] == ([[1, 2]],)
        assert data.validate() == [
            "user map (2,1,1) delta_1: shape 1x2 does not match declared dimensions 0x0"
        ]

class TestSparseKernels:
    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_rank_matches_sympy(self, mc):
        mat, cols = mc
        assert exact_rank(cleared(mat), cols) == sympy_rank(mat, cols)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rank_of_low_rank_products_matches_sympy(self, data):
        # tall times wide through a narrow inner dimension: rank deficient
        inner = data.draw(st.integers(0, 3))
        left, _ = data.draw(matrices(nrows=st.integers(0, 8), ncols=st.just(inner)))
        right, cols = data.draw(matrices(nrows=st.just(inner), ncols=st.integers(0, 8)))
        mat = dense_product(left, right) if right else [[Fraction(0)] * cols for _ in left]
        assert exact_rank(cleared(mat), cols) == sympy_rank(mat, cols)
        assert exact_rank(cleared(mat), cols) <= inner

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_rank_of_tall_and_wide_matrices_matches_sympy(self, data):
        # a tall matrix is eliminated along its columns, a wide one along its rows
        long, short = data.draw(st.integers(13, 40)), data.draw(st.integers(1, 12))
        nrows, ncols = (long, short) if data.draw(st.booleans()) else (short, long)
        mat, _ = data.draw(matrices(st.just(nrows), st.just(ncols), mostly_zero_ints))
        zero_rows = data.draw(st.sets(st.integers(0, nrows - 1), max_size=nrows // 2))
        zero_cols = data.draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 2))
        mat = [
            [Fraction(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(mat)
        ]
        assert exact_rank(cleared(mat), ncols) == sympy_rank(mat, ncols)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_rank_of_cech_coboundaries_of_the_full_simplex(self, k):
        # the augmented cochain complex of a simplex is exact, so delta_r,
        # from the r-subsets to the (r+1)-subsets of k vertices, has rank C(k-1, r)
        for r, delta in enumerate(cech(range(k), k), start=1):
            assert exact_rank(cleared(delta), comb(k, r)) == comb(k - 1, r)

    def test_rank_edge_shapes(self):
        assert exact_rank([], 4) == 0
        assert exact_rank([[], [], []], 0) == 0
        assert exact_rank(cleared([[Fraction(0)] * 3] * 4), 3) == 0
        assert exact_rank(cleared([[Fraction(2), Fraction(4)], [Fraction(1, 3), Fraction(2, 3)]]), 2) == 1
        assert exact_rank(cleared([[Fraction(6), Fraction(0)], [Fraction(0), Fraction(10)]]), 2) == 2

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matrix_mul_matches_dense_product(self, data):
        a, inner = data.draw(matrices())
        b, _ = data.draw(matrices(nrows=st.just(inner)))
        a, b = cleared(a), cleared(b)
        product = matrix_mul(a, b)
        assert product == dense_product(a, b)
        assert all(type(x) is int for row in product for x in row)

    def test_matrix_mul_rejects_shapes_that_do_not_compose(self):
        with pytest.raises(SncDataError, match="do not compose"):
            matrix_mul([[Fraction(1), Fraction(2)]], [[Fraction(1)]])


def cech(ids, top):
    """Cech coboundaries delta_1..delta_{top-1} of the (top-1)-skeleton on ids.

    Built from the subsets alone: the row of an (r+1)-subset has (-1)^t in
    the column of the r-subset that drops its t-th id.
    """
    subsets = {r: list(itertools.combinations(ids, r)) for r in range(1, top + 1)}
    maps = []
    for r in range(1, top):
        column = {s: i for i, s in enumerate(subsets[r])}
        mat = [[Fraction(0)] * len(subsets[r]) for _ in subsets[r + 1]]
        for row, big in enumerate(subsets[r + 1]):
            for t in range(r + 1):
                mat[row][column[big[:t] + big[t + 1 :]]] = Fraction((-1) ** t)
        maps.append(mat)
    return maps


def skeleton_with_user_maps(k=5, top=3, maps=None):
    """The (top-1)-skeleton of a (k-1)-simplex; every component is a P^2, so
    the (2,1,1) pieces are one-dimensional and its maps are Cech coboundaries."""
    ids = [f"S{i}" for i in range(k)]
    faces = [s for r in range(2, top + 1) for s in itertools.combinations(ids, r)]
    bare = complex_from_faces(ids, faces)
    P2 = projective_space(2)
    levels = {
        r: tuple(SncComponent(c.subset, P2, c.faces) for c in comps)
        for r, comps in bare.levels.items()
    }
    return SncComplexData(
        levels=levels, user_maps={(2, 1, 1): tuple(maps or cech(ids, top))}
    )


def flipped(maps, i, row, col, value):
    out = [[list(r) for r in mat] for mat in maps]
    out[i][row][col] = value
    return out


IDS5 = [f"S{i}" for i in range(5)]
BROKEN_MAPS = {
    "face sign in delta_1": flipped(cech(IDS5, 3), 0, 0, 0, Fraction(1)),
    "face sign in delta_2": flipped(cech(IDS5, 3), 1, 0, 0, Fraction(-1)),
    "zero entry of delta_2": flipped(cech(IDS5, 3), 1, 0, 9, Fraction(1)),
}


class TestRankedOnce:
    def test_cech_maps_are_valid(self):
        data = skeleton_with_user_maps()
        assert data.validate() == []
        # the 2-skeleton of a 4-simplex is a wedge of C(4, 3) = 4 two-spheres
        for key in ((0, 0, 0), (2, 1, 1)):
            k, p, q = key
            assert [weight_graded_dims(data, k, l, p, q) for l in range(4)] == [1, 0, 4, 0]

    @pytest.mark.parametrize("name", sorted(BROKEN_MAPS))
    def test_validate_rejects_user_maps_that_do_not_compose(self, name):
        data = skeleton_with_user_maps(maps=BROKEN_MAPS[name])
        assert data.validate() == ["user map (2,1,1): delta_2 . delta_1 != 0"]

    def test_validate_rejects_h0_row_that_does_not_compose(self, monkeypatch):
        # the filled triangle's incidence gives delta^2 = 0, so the check on
        # the H^0 row is exercised here with one face sign flipped in the
        # built chain (TestUserMaps.test_composition_must_vanish shows
        # incidence that passes the face rule and still fails it)
        build = SncComplexData._h0_chain.func

        def one_sign_flipped(data):
            chain = build(data)
            chain[0][0][0] = -chain[0][0][0]
            return chain

        monkeypatch.setattr(SncComplexData, "_h0_chain", property(one_sign_flipped))
        data = complex_from_faces(*TRIANGLE_FILLED)
        assert data.validate() == ["delta_2 . delta_1 != 0 on the H^0 row"]

    def test_each_matrix_ranked_once_per_instance(self, count_calls):
        ranks = count_calls(sncweights, "exact_rank")
        builds = count_calls(SncComplexData._h0_chain, "func")
        data = skeleton_with_user_maps(k=5, top=4)
        for _ in range(2):
            for k, p, q in ((0, 0, 0), (2, 1, 1)):
                dims = [weight_graded_dims(data, k, l, p, q) for l in range(5)]
                assert dims == [1, 0, 0, 1, 0]
            report = purity_consequence_check(data, n=1, s=1)
            assert report["rows"][(2, 1, 1)]["failing_spots"] == [(3, 1)]
        # three maps in each of the two rows, and the H^0 chain built once
        assert ranks["exact_rank"] == 6
        assert builds["func"] == 1
        # the ranks belong to the instance, not to the process
        weight_graded_dims(skeleton_with_user_maps(k=5, top=4), 2, 1, 1, 1)
        assert ranks["exact_rank"] == 9
        assert builds["func"] == 2

    @pytest.mark.parametrize("name", sorted(BROKEN_MAPS))
    def test_invalid_data_raises_on_every_call(self, name):
        data = skeleton_with_user_maps(maps=BROKEN_MAPS[name])
        for _ in range(2):
            with pytest.raises(SncDataError, match="delta_2 . delta_1 != 0"):
                weight_graded_dims(data, 2, 1, 1, 1)
            with pytest.raises(SncDataError, match="delta_2 . delta_1 != 0"):
                weight_graded_dims(data, 0, 1, 0, 0)
            with pytest.raises(SncDataError, match="delta_2 . delta_1 != 0"):
                purity_consequence_check(data, n=1, s=1)
            with pytest.raises(SncDataError, match="delta_2 . delta_1 != 0"):
                data.check_valid()
            with pytest.raises(SncDataError, match="delta_2 . delta_1 != 0"):
                coboundary_h0(data, 1)

    def test_missing_row_raises_on_every_call(self):
        data = skeleton_with_user_maps()
        for _ in range(2):
            with pytest.raises(SncDataError, match="no restriction matrices"):
                weight_graded_dims(data, 3, 1, 2, 1)
        assert weight_graded_dims(data, 2, 2, 1, 1) == 4

    def test_missing_diamond_is_a_problem_not_an_exception(self):
        data = SncComplexData(
            levels={1: (SncComponent(("A",)),)}, user_maps={(1, 1, 0): ([[Fraction(1)]],)}
        )
        assert data.validate() == [
            "user map (1,1,0): level 1 component ('A',) has no diamond; "
            "cannot size the Hodge piece"
        ]

    def test_ragged_map_is_reported_not_composed(self):
        maps = cech(IDS5, 3)
        maps[0][1] = maps[0][1] + [Fraction(1)]  # the second row of delta_1 is one too wide
        assert skeleton_with_user_maps(maps=maps).validate() == [
            "user map (2,1,1) delta_1: shape 10x5/6 does not match declared dimensions 10x5"
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_misshapen_maps_are_problems_not_exceptions(self, data):
        # delta_1 is 10x5 and delta_2 is 10x10; each row count and row width
        # is drawn within one of its declared value
        maps = []
        for rows, cols in ((10, 5), (10, 10)):
            nrows = data.draw(st.integers(rows - 1, rows + 1))
            widths = data.draw(st.lists(st.integers(cols - 1, cols + 1),
                                        min_size=nrows, max_size=nrows))
            maps.append([data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=w, max_size=w))
                         for w in widths])
        fits = all(len(m) == 10 and all(len(row) == c for row in m)
                   for m, c in zip(maps, (5, 10)))
        problems = skeleton_with_user_maps(maps=maps).validate()
        assert fits or problems and all("shape" in p for p in problems)

    def test_misshapen_row_is_reported_not_composed(self):
        maps = cech(IDS5, 3)
        maps[1] = [row[:-1] for row in maps[1]]  # delta_2 loses a column
        problems = skeleton_with_user_maps(maps=maps).validate()
        assert problems == [
            "user map (2,1,1) delta_2: shape 10x9 does not match declared dimensions 10x10"
        ]


class TestH0ChainOfValidData:
    """coboundary_h0 reads the H^0 chain that `validate` built and checked."""

    def test_validate_applies_the_face_rule_once_per_component(self, count_calls):
        ids = ["A", "B", "C", "D"]
        data = complex_from_faces(ids, [s for r in (2, 3) for s in itertools.combinations(ids, r)])
        calls = count_calls(sncweights, "_face_problems")
        assert data.validate() == []
        assert calls["_face_problems"] == 4 + 6 + 4

    @pytest.mark.parametrize("k, top", [(k, top) for k in range(3, 6) for top in range(2, k + 1)])
    def test_matches_cech_entry_by_entry(self, k, top):
        data = skeleton_with_user_maps(k=k, top=top)
        expected = cech([f"S{i}" for i in range(k)], top)
        for r in range(1, top):
            assert coboundary_h0(data, r) == expected[r - 1]
        assert coboundary_h0(data, top) == []

    def test_result_is_a_fresh_copy(self):
        data = complex_from_faces(*TRIANGLE_FILLED)
        first = coboundary_h0(data, 1)
        first[0][0] = 99
        assert coboundary_h0(data, 1) != first
        assert weight_graded_dims(data, 0, 1, 0, 0) == 0
