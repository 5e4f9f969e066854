import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stringyhodge import DescriptorFileError, descriptors, load_bundle, stringy_e
from stringyhodge.descriptors import _parse_matrix, _parse_snc, parse_bundle
from conftest import CORPUS

ALL_CORPUS = [
    "smooth_p3.json",
    "node3fold_blowup.json",
    "node3fold_small.json",
    "node3fold_wrong_discrepancy.json",
    "burkhardt_x0.json",
    "burkhardt_times_p1.json",
    "triangle_snc.json",
    "chain_snc.json",
    "synthetic_negative_fourfold.json",
    "fiber_node.json",
    "fiber_p2.json",
    "fiber_two_quadrics.json",
]


def test_dense_matrix_form(tmp_path):
    doc = {
        "dim": 1,
        "components": [],
        "strata": {"": [[1, 2], [2, 1]]},
    }
    bundle = parse_bundle(doc)
    assert bundle.descriptor.strata[()].hpq(1, 0) == 2


def test_missing_y_stratum():
    with pytest.raises(DescriptorFileError, match="missing Y stratum"):
        parse_bundle({"dim": 2, "components": [], "strata": {}})


def test_wrong_stratum_dimension():
    doc = {
        "dim": 2,
        "components": [{"id": "E", "discrepancy": 1}],
        "strata": {"": {"0,0": 1, "1,1": 1, "2,2": 1}, "E": {"0,0": 1, "2,2": 1}},
    }
    with pytest.raises(DescriptorFileError, match="range"):
        parse_bundle(doc)


def test_bad_sparse_key():
    doc = {"dim": 1, "components": [], "strata": {"": {"zero,zero": 1}}}
    with pytest.raises(DescriptorFileError, match='"p,q"'):
        parse_bundle(doc)


def _surface_doc(diamond):
    """A surface with no exceptional components whose Y diamond is `diamond`."""
    return {"dim": 2, "components": [], "strata": {"": diamond}}


Y = "<document>.strata['']"
BAD_KEY = 'sparse keys must look like "p,q"'
NOT_INT = "entries must be integers"


@pytest.mark.parametrize(
    "diamond, message",
    [
        *(({key: 1}, f"{Y}[{key!r}]: {BAD_KEY}")
          for key in ("1,2,3", "", "1,", ",1", "-1,0", "²,0", "x,y")),
        ({"3,0": 1}, f"{Y}['3,0']: (p,q) outside the 2-dimensional range"),
        ({"0,3": 1}, f"{Y}['0,3']: (p,q) outside the 2-dimensional range"),
        *(({"0,0": value}, f"{Y}['0,0']: {NOT_INT}") for value in (True, 1.0, "1")),
        # the key is checked before the value, the value before the range
        ({"x,y": True}, f"{Y}['x,y']: {BAD_KEY}"),
        ({"3,0": True}, f"{Y}['3,0']: {NOT_INT}"),
        ([[1, 0, 0], [0, True, 0], [0, 0, 1]], f"{Y}[1][1]: {NOT_INT}"),
        ([[1, 0, 0], [0, 1], [0, 0, 1]], f"{Y}[1]: dense matrix row must have 3 entries"),
        ([[1, 0, 0], {"0": 1}, [0, 0, 1]], f"{Y}[1]: dense matrix row must have 3 entries"),
        ([[1, 0, 0], [0, 1, 0]], f"{Y}: dense matrix must have 3 rows"),
        (7, f"{Y}: diamond must be a dense matrix or a sparse map"),
    ],
)
def test_loader_messages_are_pinned(diamond, message):
    with pytest.raises(DescriptorFileError) as err:
        parse_bundle(_surface_doc(diamond))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "keys", [(" 1 , 2 ", "2,1"), ("１,２", "２,１")], ids=["spaces", "full-width digits"]
)
def test_sparse_keys_with_spaces_or_full_width_digits_load(keys):
    upper, lower = keys
    diamond = {"0,0": 1, "1,1": 1, "2,2": 1, upper: 4, lower: 4}
    h = parse_bundle(_surface_doc(diamond)).descriptor.strata[()].h
    assert h == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (1, 2): 4, (2, 1): 4}


class TestKeySpellings:
    """The "p,q" spellings are read once per process, up to 1024 of them."""

    DIM = 40  # 41 * 41 = 1,681 spellings, more than the memo keeps

    def _big(self, spell="{},{}"):
        pairs = [(p, q) for p in range(self.DIM + 1) for q in range(self.DIM + 1)]
        return tuple((spell.format(p, q), 1 + p * q) for p, q in pairs), {
            (p, q): 1 + p * q for p, q in pairs}

    def test_a_diamond_parses_alike_with_a_cold_and_a_warm_memo(self, monkeypatch):
        monkeypatch.setattr(descriptors, "_PQ", descriptors._Keys())
        obj, h = self._big()
        cold = descriptors._parse_diamond(obj, self.DIM, "", {})
        assert len(descriptors._PQ) == 1024
        warm = descriptors._parse_diamond(obj, self.DIM, "", {})  # no diamond memo
        assert cold.h == warm.h == h and cold.dim == warm.dim == self.DIM
        assert len(descriptors._PQ) == 1024

    def test_a_repeat_is_found_past_the_kept_spellings(self, monkeypatch):
        monkeypatch.setattr(descriptors, "_PQ", descriptors._Keys())
        obj, _ = self._big()
        descriptors._parse_diamond(obj, self.DIM, "", {})
        assert "40,40" not in descriptors._PQ
        with pytest.raises(DescriptorFileError) as err:
            descriptors._parse_diamond(obj + ((" 40,40", 1),), self.DIM, "", {})
        assert str(err.value) == "[' 40,40']: repeats an earlier (p,q) = (40, 40)"

    @pytest.mark.parametrize("key", ["x,1", "1,2,3", "1", "", "-1,0", "1.0,0"])
    def test_a_spelling_that_does_not_parse_is_never_kept(self, key, monkeypatch):
        monkeypatch.setattr(descriptors, "_PQ", descriptors._Keys())
        for _ in range(2):
            with pytest.raises(DescriptorFileError, match='sparse keys must look like "p,q"'):
                descriptors._parse_diamond((("0,0", 1), (key, 1)), 2, "", {})
        assert descriptors._PQ == {"0,0": (0, 0)}

    def test_kept_spellings_are_bounded(self, monkeypatch):
        monkeypatch.setattr(descriptors, "_PQ", descriptors._Keys())
        for spell in ("{},{}", "{}, {}", " {},{} "):
            obj, h = self._big(spell)
            assert parse_bundle({"dim": self.DIM, "strata": {"": dict(obj)}}).descriptor \
                .strata[()].h == h
        assert len(descriptors._PQ) <= 1024

    def test_a_long_spelling_is_never_kept(self, monkeypatch):
        monkeypatch.setattr(descriptors, "_PQ", descriptors._Keys())
        padded = " " * 15 + "1,1"
        for _ in range(2):
            diamond = descriptors._parse_diamond((("0,0", 1), (padded, 2)), 2, "", {})
            assert diamond.h == {(0, 0): 1, (1, 1): 2}
        assert descriptors._PQ == {"0,0": (0, 0)}


def test_bad_rational_in_user_maps():
    doc = {
        "dim": 2,
        "components": [{"id": "A", "discrepancy": 1}],
        "strata": {"": {"0,0": 1, "1,1": 1, "2,2": 1}, "A": {"0,0": 1, "1,1": 1}},
        "snc": {
            "levels": {"1": [{"subset": ["A"]}]},
            "user_maps": {"1,1,0": [[["1/0"]]]},
        },
    }
    with pytest.raises(DescriptorFileError, match="bad rational"):
        parse_bundle(doc)


def test_json_syntax_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 3,,}', encoding="utf-8")
    with pytest.raises(DescriptorFileError) as err:
        load_bundle(str(path))
    assert "broken.json:1" in str(err.value)


@pytest.mark.parametrize("command", ["compute", "check"])
def test_deeply_nested_file_exits_2_at_the_file(command, tmp_path, capsys):
    # json.load raises RecursionError, not a ValueError; for `check` exit 1
    # would read as a negative verdict
    from stringyhodge.cli import main

    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: cannot parse: ") and err.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer literals in this Python")
def test_integer_literal_past_the_digit_limit_exits_2_at_the_file(tmp_path, capsys):
    from stringyhodge.cli import main

    path = tmp_path / "long.json"
    digits = sys.get_int_max_str_digits() + 1
    path.write_text('{"dim": ' + "1" * digits + "}", encoding="utf-8")
    assert main(["compute", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: cannot parse: Exceeds the limit")


def test_downward_closure_enforced():
    doc = {
        "dim": 3,
        "components": [{"id": "A", "discrepancy": 1}, {"id": "B", "discrepancy": 1}],
        "strata": {
            "": {"0,0": 1, "1,1": 1, "2,2": 1, "3,3": 1},
            "A": {"0,0": 1, "1,1": 2, "2,2": 1},
            "A,B": {"0,0": 1, "1,1": 1},
        },
    }
    with pytest.raises(DescriptorFileError, match="downward closure"):
        parse_bundle(doc)


def test_negative_discrepancy_rejected():
    doc = {
        "dim": 2,
        "components": [{"id": "A", "discrepancy": -1}],
        "strata": {"": {"0,0": 1, "1,1": 1, "2,2": 1}, "A": {"0,0": 1, "1,1": 1}},
    }
    with pytest.raises(DescriptorFileError, match="negative discrepancy"):
        parse_bundle(doc)


def _replaced(doc, path, value):
    """A copy of the JSON document with the value at the key path replaced."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _bool_cases():
    """(name, document, key path) with one integer field replaced by true."""
    surface = {"0,0": 1, "1,1": 2, "2,2": 1}
    base = {
        "dim": 2,
        "components": [{"id": "A", "discrepancy": 1}, {"id": "B", "discrepancy": 1}],
        "strata": {"": {"0,0": 1, "1,1": 3, "2,2": 1}, "A": [[1, 0], [0, 1]],
                   "B": {"0,0": 1, "1,1": 1}, "A,B": {"0,0": 1}},
        "snc": {"levels": {"1": [{"subset": ["A"]}, {"subset": ["B"]}],
                           "2": [{"subset": ["A", "B"], "faces": [1, 0]}]}},
        "fibers": [{"point": "x", "components": [
            {"id": "F1", "discrepancy": 1, "diamond": surface},
            {"id": "F2", "discrepancy": 1, "diamond": surface}],
            "pairwise_counts": {"F1,F2": 1}}],
    }

    def setting(path, value=True):
        return _replaced(base, path, value)

    yield "valid", base, None
    yield "dim", setting(["dim"]), ".dim"
    yield "discrepancy", setting(["components", 0, "discrepancy"]), ".components[0].discrepancy"
    yield "sparse diamond entry", setting(["strata", "B", "0,0"]), ".strata['B']['0,0']"
    yield "dense diamond entry", setting(["strata", "A", 0, 0]), ".strata['A'][0][0]"
    yield "faces", setting(["snc", "levels", "2", 0, "faces"], [True, False]), \
        ".snc.levels['2'][0].faces"
    yield "fiber discrepancy", setting(["fibers", 0, "components", 0, "discrepancy"]), \
        ".fibers[0].components[0].discrepancy"
    yield "pairwise_counts", setting(["fibers", 0, "pairwise_counts", "F1,F2"]), \
        ".fibers[0].pairwise_counts['F1,F2']"


@pytest.mark.parametrize("doc, location", [c[1:] for c in _bool_cases()],
                         ids=[c[0] for c in _bool_cases()])
def test_json_booleans_are_not_integers(doc, location, tmp_path, capsys):
    from stringyhodge.cli import main

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["compute", str(path), "--format", "machine"])
    err = capsys.readouterr().err
    if location is None:
        assert code == 0, err
    else:
        assert code == 2
        assert f"error: {path}{location}: " in err


def _snc_doc(snc):
    return {
        "dim": 2,
        "components": [{"id": "A", "discrepancy": 1}],
        "strata": {"": {"0,0": 1, "1,1": 1, "2,2": 1}, "A": {"0,0": 1, "1,1": 1}},
        "snc": snc,
    }


@pytest.mark.parametrize(
    "snc, location, message",
    [
        ({"levels": []}, ".snc.levels", "levels must be an object"),
        ({"levels": {}, "user_maps": []}, ".snc.user_maps", "user_maps must be an object"),
        # a user map needs the diamonds of the levels it acts on
        ({"levels": {"1": [{"subset": ["A"]}]}, "user_maps": {"1,1,0": [[["1"]]]}},
         ".snc", "user map (1,1,0): level 1 component ('A',) has no diamond"),
        # (1,1) lies in degree 2, not 3
        ({"levels": {"1": [{"subset": ["A"], "diamond": {"0,0": 1, "1,1": 1}}]},
          "user_maps": {"3,1,1": []}},
         ".snc", "user map (3,1,1): Hodge piece (1,1) does not lie in degree 3"),
        # "²" passes str.isdigit but not int()
        ({"levels": {"²": []}}, ".snc.levels['²']", "level keys must be integers >= 1"),
        # a component's own paths are rooted at the component only to raise
        ({"levels": {"1": [5]}}, ".snc.levels['1'][0]", "component must be an object"),
        ({"levels": {"1": [{"subset": "A"}]}}, ".snc.levels['1'][0].subset",
         "subset must be a list of component ids"),
        ({"levels": {}, "user_maps": {"²,1,1": []}}, ".snc.user_maps['²,1,1']",
         'keys must look like "k,p,q"'),
        ({"levels": {"1": [{"subset": ["A"], "diamond": {"²,0": 1}}]}},
         ".snc.levels['1'][0].diamond['²,0']", 'sparse keys must look like "p,q"'),
        # level r = dim + 1 would have dimension -1; an empty [] passes the row count
        ({"levels": {"3": [{"subset": ["A"], "diamond": []}]}},
         ".snc.levels['3'][0].diamond", "dimension would be -1; an empty stratum has no diamond"),
        # the H^0 row is built from the incidence data, never supplied
        ({"levels": {"1": [{"subset": ["A"]}]}, "user_maps": {"0,0,0": [[["1"]]]}},
         ".snc", "user map (0,0,0): the H^0 row is built from the incidence data"),
        ({"levels": {"1": [{"subset": ["A"], "faces": [5, 7]}]}},
         ".snc", "level 1 component 0: expected 0 faces, got 2"),
        # the loader leaves a matrix's shape to validate
        ({"levels": {"1": [{"subset": ["A"], "diamond": {"0,0": 1, "1,1": 1}}]},
          "user_maps": {"2,1,1": [[[1, -1], [1]]]}},
         ".snc", "user map (2,1,1) delta_1: shape 2x1/2 does not match declared dimensions 0x1"),
    ],
    ids=["levels list", "user_maps list", "no diamond", "user map outside its degree",
         "superscript level key", "component not an object", "subset not a list",
         "superscript user map key", "superscript diamond key",
         "empty diamond at dimension -1", "H^0 user map", "faces at level 1", "ragged user map"],
)
def test_snc_block_errors_exit_2_with_key_path(snc, location, message, tmp_path, capsys):
    from stringyhodge.cli import main

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_snc_doc(snc)), encoding="utf-8")
    assert main(["compute", str(path)]) == 2
    assert f"error: {path}{location}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("empty", [[], {}], ids=["dense", "sparse"])
def test_stratum_of_dimension_minus_one_exits_2_with_key_path(empty, tmp_path, capsys):
    from stringyhodge.cli import main

    # on a curve, D_A and D_B are points and D_{A,B} would have dimension -1
    doc = {
        "dim": 1,
        "components": [{"id": "A", "discrepancy": 1}, {"id": "B", "discrepancy": 1}],
        "strata": {"": {"0,0": 1, "1,1": 1}, "A": {"0,0": 1}, "B": {"0,0": 1}, "A,B": empty},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["compute", str(path)]) == 2
    assert (f"error: {path}.strata['A,B']: dimension would be -1; "
            "an empty stratum has no diamond") in capsys.readouterr().err


@pytest.mark.parametrize(
    "maps, location",
    [
        ([[[1, "-1"], ["-1", True]]], "[0][1][1]"),  # true is not the 1 parsed before
        ([[["1/0"]], [["1", "1/0"]]], "[0][0][0]"),  # the first of two bad entries
        ([[["1/2", "1/2"]], [["1/2", "2/0"]]], "[1][0][1]"),
    ],
)
def test_bad_user_map_entry_reports_its_own_key_path(maps, location):
    doc = _snc_doc({"levels": {"1": [{"subset": ["A"]}]}, "user_maps": {"1,1,0": maps}})
    with pytest.raises(DescriptorFileError) as err:
        parse_bundle(doc)
    assert err.value.location == f"<document>.snc.user_maps['1,1,0']{location}"


def test_integral_rationals_parse_as_ints():
    rationals = {}
    row = _parse_matrix([["4/2", "-1", 1, "1/2", "-3/6"]], "m", rationals)[0]
    assert row == [2, -1, 1, Fraction(1, 2), Fraction(-1, 2)]
    assert [type(x) for x in row] == [int, int, int, Fraction, Fraction]
    assert rationals == {"4/2": 2, "-1": -1, 1: 1, "1/2": Fraction(1, 2), "-3/6": Fraction(-1, 2)}
    # true hashes like the 1 parsed before, and is still rejected
    with pytest.raises(DescriptorFileError) as err:
        _parse_matrix([[1, True]], "m", rationals)
    assert err.value.location == "m[0][1]"
    assert err.value.message == 'rationals must be integers or "num/den" strings'


def test_user_map_rationals_parsed_exactly():
    text = '{"levels": {}, "user_maps": {"1,1,0": [[["1", 1, "-1"]], [["2/4", "-3/6", 0]]]}}'
    snc = json.loads(text, object_pairs_hook=tuple)  # decoded as the loader decodes
    maps = _parse_snc(snc, 2, "snc", {}).user_maps[(1, 1, 0)]
    assert maps == ([[1, 1, -1]], [[1, -1, 0]])
    assert all(type(x) is int for mat in maps for row in mat for x in row)


@pytest.mark.parametrize(
    "fibers, location, message",
    [
        (5, ".fibers", "fibers must be a list"),
        ([{"point": "x", "components": [{"id": "F", "discrepancy": 1,
                                         "diamond": {"0,0": 1, "1,1": 1, "2,2": 1}}],
           "pairwise_counts": []}],
         ".fibers[0].pairwise_counts", "pairwise_counts must be an object"),
    ],
    ids=["fibers number", "pairwise_counts list"],
)
def test_fiber_block_errors_exit_2_with_key_path(fibers, location, message, tmp_path, capsys):
    from stringyhodge.cli import main

    path = tmp_path / "doc.json"
    doc = {"dim": 3, "strata": {"": {"0,0": 1, "1,1": 1, "2,2": 1, "3,3": 1}}, "fibers": fibers}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["defect", str(path)]) == 2
    assert f"error: {path}{location}: {message}" in capsys.readouterr().err


def _exit_2_at(doc, location, tmp_path, capsys):
    """`stringy compute` on doc, or on the JSON text doc, exits 2 and names the
    key path location."""
    from stringyhodge.cli import main

    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    assert main(["compute", str(path)]) == 2
    err, prefix = capsys.readouterr().err, f"error: {path}{location}: "
    assert err.startswith(prefix), err
    return err[len(prefix):]


P2 = {"0,0": 1, "1,1": 1, "2,2": 1}
P3 = {**P2, "3,3": 1}
TWO_PLANES = [{"id": "A", "discrepancy": 1}, {"id": "B", "discrepancy": 1}]


@pytest.mark.parametrize(
    "doc, location",
    [
        ({"dim": 3, "components": TWO_PLANES, "strata": {
            "": P3, "A": P2, "B": P2, "A,B": {"0,0": 1, "1,1": 1}, "B,A": {"0,0": 1, "1,1": 2}}},
         ".strata['B,A']"),
        ({"dim": 3, "strata": {"": {**P3, "01,1": 7}}}, ".strata['']['01,1']"),
        ({"dim": 3, "strata": {"": {**P3, "1,2": 0, "1,02": 1}}}, ".strata['']['1,02']"),
        ({"dim": 3, "strata": {"": P3}, "snc": {"levels": {"1": [], "01": []}}},
         ".snc.levels['01']"),
        ({"dim": 3, "strata": {"": P3}, "snc": {"user_maps": {"2,1,1": [], "2, 1, 1": []}}},
         ".snc.user_maps['2, 1, 1']"),
        ({"dim": 3, "strata": {"": P3}, "fibers": [{"point": "x", "components": [
            {"id": "F1", "discrepancy": 1, "diamond": P2},
            {"id": "F2", "discrepancy": 1, "diamond": P2}],
            "pairwise_counts": {"F1,F2": 1, "F2,F1": 5}}]},
         ".fibers[0].pairwise_counts['F2,F1']"),
    ],
    ids=["stratum A,B twice", "h11 twice", "h12 twice, first 0", "level 1 twice",
         "user map twice", "fiber pair swapped"],
)
def test_repeated_keys_exit_2_at_the_later_key(doc, location, tmp_path, capsys):
    message = _exit_2_at(doc, location, tmp_path, capsys)
    assert message.startswith("repeats an earlier ")


ONE_PLANE = [{"id": "E", "discrepancy": 1}]
EMPTY_ID = 'names an empty id; only the key "" names Y'
BAD_ID = 'id must be a nonempty string without ","'


@pytest.mark.parametrize(
    "doc, location, message",
    [
        ({"dim": 3, "strata": {"": P3, ",": P3}}, ".strata[',']", EMPTY_ID),
        ({"dim": 3, "components": ONE_PLANE, "strata": {"": P3, "E,": P2}}, ".strata['E,']",
         EMPTY_ID),
        ({"dim": 3, "components": ONE_PLANE, "strata": {"": P3, ",E": P2}}, ".strata[',E']",
         EMPTY_ID),
        ({"dim": 3, "components": ONE_PLANE, "strata": {"": P3, "E,,": P2}}, ".strata['E,,']",
         EMPTY_ID),
        ({"dim": 3, "components": [{"id": "", "discrepancy": 1}], "strata": {"": P3}},
         ".components[0].id", BAD_ID),
        ({"dim": 3, "components": [*ONE_PLANE, {"id": "E,F", "discrepancy": 1}],
          "strata": {"": P3, "E": P2, "E,F": {"2,2": 1}}}, ".components[1].id", BAD_ID),
        ({"dim": 3, "strata": {"": P3}, "fibers": [
            {"point": "x", "components": [{"id": "F,1", "discrepancy": 1, "diamond": P2}]}]},
         ".fibers[0].components[0].id", BAD_ID),
    ],
    ids=["Y twice", "trailing comma", "leading comma", "two trailing commas", "empty id",
         "id with a comma", "fiber id with a comma"],
)
def test_empty_or_comma_id_exits_2_at_its_path(doc, location, message, tmp_path,
                                                 capsys):
    # each once loaded as another key, Y or E, or was blamed on a later key
    assert _exit_2_at(doc, location, tmp_path, capsys) == message + "\n"


# one document with every kind of object the loader reads; each case below
# writes one key of one object twice, and json.load would keep only the last
EVERY_OBJECT = """{"dim": 3, "label": "x",
 "components": [{"id": "E", "discrepancy": 1}],
 "strata": {"": {"0,0": 1, "1,1": 2, "2,2": 2, "3,3": 1}, "E": {"0,0": 1, "1,1": 1, "2,2": 1}},
 "snc": {"levels": {"1": [{"subset": ["E"], "diamond": {"0,0": 1, "1,1": 1, "2,2": 1}}]},
         "user_maps": {}},
 "fibers": [{"point": "x", "components": [{"id": "F", "discrepancy": 1, "diamond": {"0,0": 1}}],
             "pairwise_counts": {}}]}"""


def test_the_document_with_every_object_loads(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(EVERY_OBJECT, encoding="utf-8")
    bundle = load_bundle(str(path))
    assert len(bundle.descriptor.strata) == 2 and len(bundle.snc.levels[1]) == 1
    assert len(bundle.fibers) == 1


@pytest.mark.parametrize(
    "written, twice, location, message",
    [
        ('"dim": 3,', '"dim": 3, "dim": 3,', "['dim']", "repeats an earlier key"),
        ('{"id": "E",', '{"id": "E", "id": "E",', ".components[0]['id']",
         "repeats an earlier key"),
        ('"E": {', '"E": {"0,0": 1}, "E": {', ".strata['E']", "repeats an earlier stratum"),
        ('"1,1": 2,', '"1,1": 2, "1,1": 2,', ".strata['']['1,1']",
         "repeats an earlier (p,q) = (1, 1)"),
        ('"user_maps": {}}', '"user_maps": {}, "user_maps": {}}', ".snc['user_maps']",
         "repeats an earlier key"),
        ('"levels": {', '"levels": {"1": [], ', ".snc.levels['1']", "repeats an earlier level"),
        ('{"subset": ["E"],', '{"subset": ["E"], "subset": ["E"],', ".snc.levels['1'][0]['subset']",
         "repeats an earlier key"),
        ('"user_maps": {}', '"user_maps": {"1,1,0": [], "1,1,0": []}', ".snc.user_maps['1,1,0']",
         "repeats an earlier row"),
        ('{"point": "x",', '{"point": "x", "point": "x",', ".fibers[0]['point']",
         "repeats an earlier key"),
        ('{"id": "F",', '{"id": "F", "id": "F",', ".fibers[0].components[0]['id']",
         "repeats an earlier key"),
        ('"pairwise_counts": {}', '"pairwise_counts": {"E,F": 1, "E,F": 1}',
         ".fibers[0].pairwise_counts['E,F']", "repeats an earlier pair"),
    ],
    ids=["top level", "component", "strata", "diamond map", "snc", "levels", "level component",
         "user_maps", "fiber", "fiber component", "pairwise_counts"],
)
def test_key_written_twice_exits_2_at_the_later_key(written, twice, location, message,
                                                      tmp_path, capsys):
    """One rule for every object: the later of two keys that name one thing
    is rejected with its path, a key written twice as any other pair.

    A second "E" stratum kept alone would give h^{2,2}_st = -3 for the node
    threefold, and a second "dim" would change the dimension unseen.
    """
    assert EVERY_OBJECT.count(written) == 1
    text = EVERY_OBJECT.replace(written, twice)
    assert _exit_2_at(text, location, tmp_path, capsys) == message + "\n"


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_a_document_built_in_code_parses_as_its_file_loads(corpus, name):
    path = corpus / name
    built = parse_bundle(json.loads(path.read_text(encoding="utf-8")))
    loaded = load_bundle(str(path))
    d, e = built.descriptor, loaded.descriptor
    assert list(d.strata) == list(e.strata)
    assert list(d.strata.values()) == list(e.strata.values())
    assert built.snc == loaded.snc and built.fibers == loaded.fibers
    f, g = stringy_e(d), stringy_e(e)
    assert f.numerator.terms == g.numerator.terms
    assert f.denominator.factors == g.denominator.factors


def test_tuples_built_in_code_read_as_json_arrays():
    # as json.dump writes them: a tuple inside a document is never taken for
    # a decoded object, so a tuple component is no object
    doc = {"dim": 1, "components": [("E", 1)], "strata": {"": ((1, 0), (0, 1))}}
    with pytest.raises(DescriptorFileError) as err:
        parse_bundle(doc)
    assert str(err.value) == "<document>.components[0]: component must be an object"
    del doc["components"]
    assert parse_bundle(doc).descriptor.strata == {(): parse_bundle(
        json.loads(json.dumps(doc))).descriptor.strata[()]}


def test_swapped_fiber_pair_exits_2(corpus, tmp_path, capsys):
    from stringyhodge.cli import main

    doc = json.loads((corpus / "fiber_two_quadrics.json").read_text(encoding="utf-8"))
    doc["fibers"][0]["pairwise_counts"]["F2,F1"] = 5  # would merge into sigma = -3
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["defect", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}.fibers[0].pairwise_counts['F2,F1']: repeats an earlier pair\n"


@pytest.mark.parametrize("faces", [[1, 0], [0, 1]])
def test_unsorted_snc_subset_exits_2(faces, tmp_path, capsys):
    levels = {"1": [{"subset": ["A"]}, {"subset": ["B"]}],
              "2": [{"subset": ["B", "A"], "faces": faces}]}
    doc = {"dim": 3, "strata": {"": P3}, "snc": {"levels": levels}}
    message = _exit_2_at(doc, ".snc", tmp_path, capsys)
    assert message.startswith("level 2 component 0: subset not sorted")


def test_snc_subset_repeating_an_id_exits_2(tmp_path, capsys):
    # D_A meeting itself would give the loop D_A, D_A ∩ D_A: Gr^W_0 H^1(D) = 1
    levels = {"1": [{"subset": ["A"]}], "2": [{"subset": ["A", "A"], "faces": [0, 0]}]}
    doc = {"dim": 3, "strata": {"": P3}, "snc": {"levels": levels}}
    message = _exit_2_at(doc, ".snc", tmp_path, capsys)
    assert message == "level 2 component 0: subset repeats an id\n"


def test_fiber_pair_written_in_either_order_loads(corpus, tmp_path):
    doc = json.loads((corpus / "fiber_two_quadrics.json").read_text(encoding="utf-8"))
    doc["fibers"][0]["pairwise_counts"] = {"F2,F1": 1}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_bundle(str(path)).fibers[0].pairwise_counts == {("F1", "F2"): 1}


FIBER = {"point": "x", "components": [{"id": "F1", "discrepancy": 1, "diamond": P2},
                                      {"id": "F2", "discrepancy": 1, "diamond": P2}]}


def _fiber_doc(**fiber):
    return {"dim": 3, "strata": {"": P3}, "fibers": [{**FIBER, **fiber}]}


@pytest.mark.parametrize(
    "doc, location, message",
    [
        (_fiber_doc(pairwise_counts={"F1,F2,F3": 1}), ".fibers[0]",
         "malformed intersection pair ('F1', 'F2', 'F3')"),
        (_fiber_doc(pairwise_counts={"F1,F2": -1}), ".fibers[0]",
         "negative intersection count for pair ('F1', 'F2')"),
        (_fiber_doc(components=[FIBER["components"][0]] * 2), ".fibers[0]",
         "duplicate fiber component ids"),
        (_fiber_doc(components=[{"id": "F1", "discrepancy": -1, "diamond": P2}]), ".fibers[0]",
         "component 'F1' has negative discrepancy"),
        ({"dim": 3, "components": [TWO_PLANES[0]] * 2, "strata": {"": P3, "A": P2}}, "",
         "duplicate component ids"),
    ],
    ids=["pair of three ids", "negative count", "fiber ids repeated",
         "fiber negative discrepancy", "component ids repeated"],
)
def test_validate_rules_are_reported_at_their_block(doc, location, message, tmp_path, capsys):
    # the loader checks types and spelling; the rest is left to validate
    assert _exit_2_at(doc, location, tmp_path, capsys) == message + "\n"


THREE_PLANES = [{"id": cid, "discrepancy": 1} for cid in "ABC"]


def _three_planes(plane, **strata):
    """A threefold with planes A, B and C, each stratum spelled `plane`."""
    return {"dim": 3, "components": THREE_PLANES,
            "strata": {"": P3, "A": plane, "B": plane, "C": plane, **strata}}


def test_diamonds_spelled_alike_share_one_object():
    line = {"0,0": 1, "1,1": 1}
    doc = _three_planes(P2, **{"A,B": line, "A,C": line, "B,C": {"1,1": 1, "0,0": 1},
                               "A,B,C": {"0,0": 1}})
    doc["snc"] = {"levels": {"1": [{"subset": [cid], "diamond": P2} for cid in "ABC"]}}
    doc["fibers"] = [{"point": "x", "components": [
        {"id": "F1", "discrepancy": 1, "diamond": P2},
        {"id": "F2", "discrepancy": 1, "diamond": line}]}]
    bundle = parse_bundle(doc)
    strata = bundle.descriptor.strata
    plane = strata[("A",)]
    assert strata[("B",)] is plane and strata[("C",)] is plane
    assert all(comp.diamond is plane for comp in bundle.snc.levels[1])
    assert bundle.fibers[0].components[0].diamond is plane
    assert strata[("A", "C")] is strata[("A", "B")]
    # another key order is another spelling: an equal value, parsed anew
    assert strata[("B", "C")] == strata[("A", "B")]
    assert strata[("B", "C")] is not strata[("A", "B")]
    # the dimension belongs to the spelling
    assert strata[("A", "B")].dim == 1 and bundle.fibers[0].components[1].diamond.dim == 2


def test_one_diamond_spelled_three_ways_loads_and_computes_alike(tmp_path, capsys):
    from stringyhodge.cli import main

    spellings = [P2, {"2,2": 1, "0,0": 1, "1,1": 1}, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    planes, outputs = [], []
    for i, plane in enumerate(spellings):
        path = tmp_path / f"{i}.json"
        doc = {"dim": 3, "label": "a plane", "components": ONE_PLANE,
               "strata": {"": P3, "E": plane}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        planes.append(load_bundle(str(path)).descriptor.strata[("E",)])
        assert main(["compute", str(path), "--format", "machine"]) == 0
        outputs.append(capsys.readouterr().out)
    assert planes[0] == planes[1] == planes[2]
    assert len(set(map(hash, planes))) == 1
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_shared_diamond_is_validated_once_and_reported_per_stratum(count_scans):
    scans = count_scans()
    with pytest.raises(DescriptorFileError) as err:
        parse_bundle(_three_planes({"0,0": 1, "1,0": 1, "2,2": 1}))
    broken = "conjugation symmetry broken: h^{1,0} = 1 but h^{0,1} = 0"
    assert str(err.value) == "<document>: " + "; ".join(
        f"stratum ({cid!r},): {broken}" for cid in "ABC")
    assert scans == {False: 2}  # Y, and the plane that A, B and C share


@pytest.mark.parametrize(
    "plane, key, message",
    [
        ({**P2, "3,3": 1}, "['3,3']", "(p,q) outside the 2-dimensional range"),
        ({**P2, "x": 1}, "['x']", BAD_KEY),
        ({**P2, "1,1": True}, "['1,1']", NOT_INT),
        # unhashable entries: the loader's per-document lookup must not raise TypeError
        ({**P2, "1,1": [1]}, "['1,1']", NOT_INT),
        ({**P2, "1,1": {"n": 1}}, "['1,1']", NOT_INT),
        ([[1, 0, 0], [0, 1.0, 0], [0, 0, 1]], "[1][1]", NOT_INT),
    ],
    ids=["out of range", "bad key", "true", "list entry", "object entry", "dense float"],
)
def test_a_bad_diamond_in_three_strata_exits_2_at_the_first(plane, key, message, tmp_path,
                                                             capsys):
    assert _exit_2_at(_three_planes(plane), f".strata['A']{key}", tmp_path, capsys) == (
        f"{message}\n")


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "1.0"])
def test_true_or_float_never_matches_a_diamond_parsed_before(value, tmp_path, capsys):
    # True == 1 and 1.0 == 1, and both hash as 1
    doc = _three_planes(P2, C={**P2, "1,1": value})
    assert _exit_2_at(doc, ".strata['C']['1,1']", tmp_path, capsys) == f"{NOT_INT}\n"


def _compute_in_the_c_locale(path, fmt="machine"):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    return subprocess.run(
        [sys.executable, "-m", "stringyhodge.cli", "compute", str(path), "--format", fmt],
        capture_output=True, encoding="utf-8", env=env,
    )


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    doc = {"dim": 0, "label": "K\u00e4hler point", "strata": {"": {"0,0": 1}}}
    path = tmp_path / "doc.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    proc = _compute_in_the_c_locale(path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["label"] == "K\u00e4hler point"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
    proc = _compute_in_the_c_locale(path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {path}: not valid UTF-8: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_text_output_escapes_what_the_locale_cannot_encode(tmp_path, capsys):
    from stringyhodge.cli import main

    doc = {"dim": 0, "label": "K\u00e4hler point", "strata": {"": {"0,0": 1}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    proc = _compute_in_the_c_locale(path, "text")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("== K\\xe4hler point (dim 0) ==\n")
    # an encoding that holds the label writes it as it is
    assert main(["compute", str(path)]) == 0
    assert capsys.readouterr().out == proc.stdout.replace("\\xe4", "\u00e4")


# every JSON type, ids and keys the format cannot spell, rationals that do
# not parse; integers stay small, since a dim or a discrepancy of 10^6 only
# asks for a large expansion
MUTANTS = ([], {}, [[]], [0], [1, 0], {"0,0": 1}, 0, 1, 2, 3, -1, 9, 1.5, True, False, None,
           "", "x", ",", "E", "0,0", "1/2", "1/0", "E,F", "\u00e9")


def _key_paths(node, path=()):
    """Every key path of a JSON document: object keys and list indices, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _mutants(doc):
    """The document with one edit at a time, undone before the next: every
    value replaced by each of MUTANTS, or deleted, and every key renamed
    (reversed, or given a trailing comma where that reads the same) or list
    entry doubled."""
    for *route, key in list(_key_paths(doc)):
        parent = doc
        for step in route:
            parent = parent[step]
        old = parent[key]
        for value in MUTANTS:
            parent[key] = value
            yield doc
        parent[key] = old
        if isinstance(parent, dict):
            items = list(parent.items())
            new = key[::-1] if key[::-1] != key else key + ","
            for edit in ([kv for kv in items if kv[0] != key],
                         [(new if k == key else k, v) for k, v in items]):
                parent.clear()
                parent.update(edit)
                yield doc
            parent.clear()
            parent.update(items)
        else:
            del parent[key]
            yield doc
            parent[key:key] = [old, old]
            yield doc
            del parent[key]


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_mutated_corpus_loads_or_reports_its_file(name, corpus, tmp_path, capsys):
    """Each mutant of a corpus document either raises DescriptorFileError
    located at the file, which `cli.main` reports with exit 2 for every
    command, or loads; then `compute` exits 0, `check` 0 or 1, and `defect`
    0 or 1, or 2 for a file with no fibers.  Nothing else escapes."""
    from stringyhodge.cli import main

    path = tmp_path / name
    for mutated in _mutants(json.loads((corpus / name).read_text(encoding="utf-8"))):
        try:
            bundle = parse_bundle(mutated, location=str(path))
        except DescriptorFileError as exc:
            assert exc.location.startswith(str(path)), mutated
            continue
        path.write_text(json.dumps(mutated), encoding="utf-8")
        expected = {"compute": {0}, "check": {0, 1}, "defect": {0, 1} if bundle.fibers else {2}}
        for command, codes in expected.items():
            code = main([command, str(path), "--format", "machine"])
            assert code in codes, (command, code, mutated, capsys.readouterr().err)
            capsys.readouterr()


def text_mode_load(path):
    """The reader load_bundle replaced, kept as the reference for its messages:
    a text-mode read, then json.load."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=tuple)
    except OSError as exc:
        raise DescriptorFileError(path, f"cannot read: {exc}")
    except UnicodeDecodeError as exc:
        raise DescriptorFileError(path, f"not valid UTF-8: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise DescriptorFileError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg)
    except (ValueError, RecursionError) as exc:
        raise DescriptorFileError(path, f"cannot parse: {exc}")
    return parse_bundle(doc, location=path)


def assert_loads_as_text_mode(path):
    """The bundle, or the error message, which both readers must agree on."""
    outcomes = []
    for load in (load_bundle, text_mode_load):
        try:
            outcomes.append(load(str(path)))
        except DescriptorFileError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


POINT = b'{"dim": 0,\n "strata": {"": {"0,0": 1}}}'
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("raw, expected", [
    (b"\xef\xbb\xbf" + POINT, ":1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (b'{"dim": 0,\r\n "strata":\r\n {,}}\r\n', ":3:3: Expecting property name enclosed"),
    (b'{"dim": 0,\r "strata":\r {,}}\r', ":3:3: Expecting property name enclosed"),
    (POINT.replace(b'"0,0"', b'"0,\r0"'), ":2:21: Invalid control character at"),
    (POINT.replace(b"0,0", b"0,\xff0"), ": not valid UTF-8: invalid start byte at byte 31"),
    (b"\x80" + POINT, ": not valid UTF-8: invalid start byte at byte 0"),
    (POINT.replace(b"0,0", b"0,0\xe2\x82"), ": not valid UTF-8: invalid continuation byte"),
    pytest.param(POINT.replace(b": 0", b": " + b"1" * (LIMIT + 1)), ": cannot parse: Exceeds",
                 marks=pytest.mark.skipif(not LIMIT, reason="no limit on integer literals")),
    (b"[" * 100_000, ": cannot parse: "),
    (POINT.replace(b"\n", b"\r\n"), ""),
    (POINT.replace(b"\n", b"\r"), ""),
])
def test_the_loader_reads_bytes_as_text_mode_did(raw, expected, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    got = assert_loads_as_text_mode(path)
    if expected:
        assert got.startswith(f"{path}{expected}")
    else:  # a file with other line endings loads as the LF original
        path.write_bytes(POINT)
        assert got == load_bundle(str(path))


def test_a_missing_file_or_a_directory_reads_as_text_mode_did(tmp_path):
    missing = tmp_path / "missing.json"
    assert assert_loads_as_text_mode(missing).startswith(f"{missing}: cannot read: [Errno 2]")
    assert assert_loads_as_text_mode(tmp_path).startswith(f"{tmp_path}: cannot read: ")


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(ALL_CORPUS), newline=st.sampled_from([b"\n", b"\r\n", b"\r"]),
       bom=st.booleans(), edit=st.one_of(st.none(), st.tuples(
           st.booleans(), st.floats(0, 1, exclude_max=True), st.integers(0, 255))))
def test_edited_corpus_files_load_as_text_mode(name, newline, bom, edit, tmp_path_factory):
    """A corpus file with its line endings changed, a BOM maybe, and one byte
    flipped or inserted: the same bundle or message as the text-mode reader."""
    raw = (CORPUS / name).read_bytes().replace(b"\n", newline)
    if bom:
        raw = b"\xef\xbb\xbf" + raw
    if edit is not None:
        flip, where, byte = edit
        i = int(where * len(raw))
        raw = raw[:i] + bytes([byte]) + raw[i + flip:]
    path = tmp_path_factory.mktemp("edited") / name
    path.write_bytes(raw)
    assert_loads_as_text_mode(path)
