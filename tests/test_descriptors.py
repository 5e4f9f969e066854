import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stringyhodge import (
    DescriptorFileError,
    load_bundle,
)
from stringyhodge.descriptors import _parse_snc, parse_bundle

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
         "superscript level key", "superscript user map key", "superscript diamond key",
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


def test_user_map_rationals_parsed_exactly():
    snc = {"levels": {}, "user_maps": {"1,1,0": [[["1", 1, "-1"]], [["2/4", "-3/6", 0]]]}}
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
    """`stringy compute` on doc exits 2 and names the key path location."""
    from stringyhodge.cli import main

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
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
        ({"dim": 3, "strata": {"": P3, ",": P3}}, ".strata[',']"),
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
    ids=["stratum A,B twice", "Y twice", "h11 twice", "h12 twice, first 0", "level 1 twice",
         "user map twice", "fiber pair swapped"],
)
def test_repeated_keys_exit_2_at_the_later_key(doc, location, tmp_path, capsys):
    message = _exit_2_at(doc, location, tmp_path, capsys)
    assert message.startswith("repeats an earlier ")


def test_key_written_twice_in_one_object_exits_2(corpus, tmp_path, capsys):
    """json.load keeps the last of two equal keys; the loader rejects the pair.

    A second "E" stratum would otherwise replace the first and give
    h^{2,2}_st = -3 for the node threefold.
    """
    from stringyhodge.cli import main

    text = (corpus / "node3fold_blowup.json").read_text(encoding="utf-8")
    path = tmp_path / "doc.json"
    second_e = '"E": {"0,0": 1, "1,1": 7, "2,2": 1},'
    path.write_text(text.replace('"strata": {', '"strata": {' + second_e, 1), encoding="utf-8")
    assert main(["compute", str(path), "--format", "machine"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: repeats an earlier key 'E' in one object\n"


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


def test_fiber_pair_written_in_either_order_loads(corpus, tmp_path):
    doc = json.loads((corpus / "fiber_two_quadrics.json").read_text(encoding="utf-8"))
    doc["fibers"][0]["pairwise_counts"] = {"F2,F1": 1}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_bundle(str(path)).fibers[0].pairwise_counts == {("F1", "F2"): 1}


FIBER = {"point": "x", "components": [{"id": "F1", "discrepancy": 1, "diamond": P2},
                                      {"id": "F2", "discrepancy": 1, "diamond": P2}]}


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"F1,F2,F3": 1}, "malformed intersection pair ('F1', 'F2', 'F3')"),
        ({"F1,F2": -1}, "negative intersection count for pair ('F1', 'F2')"),
    ],
    ids=["pair of three ids", "negative count"],
)
def test_fiber_rules_are_reported_at_the_fiber(counts, message, tmp_path, capsys):
    # the loader checks types and spelling; the rest is left to validate
    doc = {"dim": 3, "strata": {"": P3}, "fibers": [{**FIBER, "pairwise_counts": counts}]}
    assert _exit_2_at(doc, ".fibers[0]", tmp_path, capsys) == message + "\n"


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


MUTANTS = ([], {}, 5, "x", True, None)


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


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_mutated_corpus_loads_or_reports_its_file(name, corpus, tmp_path, capsys):
    """Each value of a corpus document, replaced by each JSON type in turn,
    either loads and `stringy compute` exits 0 on it, or raises
    DescriptorFileError located at the file; nothing else escapes."""
    from stringyhodge.cli import main

    doc = json.loads((corpus / name).read_text(encoding="utf-8"))
    path = tmp_path / name
    for key_path in _key_paths(doc):
        for value in MUTANTS:
            mutated = _replaced(doc, key_path, value)
            try:
                parse_bundle(mutated, location=str(path))
            except DescriptorFileError as exc:  # cli.main reports it and exits 2
                assert exc.location.startswith(str(path)), (key_path, value)
                continue
            path.write_text(json.dumps(mutated), encoding="utf-8")
            assert main(["compute", str(path), "--format", "machine"]) == 0, (
                key_path, value, capsys.readouterr().err)
