import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stringyhodge import cli, conjecture_report, load_bundle, stringy
from stringyhodge.cli import main
from stringyhodge.stringy import (
    check_pd_identity, check_polynomial_consequences, check_symmetry, stringy_hodge_table,
)
from conftest import CORPUS, descriptors


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_node_threefold(self, corpus, capsys):
        code, out, _ = run(capsys, "compute", str(corpus / "node3fold_blowup.json"))
        assert code == 0
        assert "h^{1,1}_st = 2" in out

    def test_burkhardt_machine(self, corpus, capsys):
        code, out, _ = run(
            capsys, "compute", str(corpus / "burkhardt_x0.json"), "--format", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["stringy_hodge_numbers"]["1,1"] == 16
        assert doc["polynomial"] is not None
        assert doc["checks"]["symmetry"] is True
        assert doc["checks"]["poincare_duality"] is True
        assert "origin" in doc["expansion_point"]

    def test_missing_y_stratum_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"dim": 2, "components": [], "strata": {}}', encoding="utf-8")
        code, _, err = run(capsys, "compute", str(path))
        assert code == 2
        assert "missing Y stratum" in err

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_path_is_input_error(self, name, tmp_path, capsys):
        path = tmp_path / name  # a file that is not there, then a directory
        code, out, err = run(capsys, "compute", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: cannot read: ")

    def test_max_degree_flag(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            str(corpus / "synthetic_negative_fourfold.json"),
            "--max-degree",
            "4",
            "--format",
            "machine",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["expansion_bound"] == 4
        assert all(
            sum(map(int, key.split(","))) <= 4 for key in doc["b_coefficients"]
        )

    def test_snc_weights_included(self, corpus, capsys):
        code, out, _ = run(
            capsys, "compute", str(corpus / "triangle_snc.json"), "--format", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["snc_h0_weight_dims"]["1"] == 1


class TestCheck:
    def test_burkhardt_times_p1(self, corpus, capsys):
        code, out, _ = run(
            capsys, "check", str(corpus / "burkhardt_times_p1.json"), "--format", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_nonnegative"]
        assert doc["values"]["2,2"] == 32

    def test_smooth(self, corpus, capsys):
        code, _, _ = run(capsys, "check", str(corpus / "smooth_p3.json"))
        assert code == 0

    def test_negative_exit_code(self, corpus, capsys):
        code, out, _ = run(
            capsys, "check", str(corpus / "synthetic_negative_fourfold.json"),
            "--format", "machine",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdicts"]["2,2"] == "negative"


class TestIdentityChecksRunOnlyWhereReported:
    """`compute` prints the symmetry and duality verdicts; `check` prints neither,
    so it runs neither."""

    @pytest.mark.parametrize("command, expected", [("check", 0), ("compute", 1)])
    @pytest.mark.parametrize(
        "path", ["burkhardt_x0.json", "node3fold_blowup.json", "synthetic_negative_fourfold.json"]
    )
    def test_calls_per_command(
        self, command, expected, path, corpus, capsys, monkeypatch, count_calls
    ):
        names = ("check_symmetry", "check_pd_identity")
        calls = [count_calls(stringy, name) for name in names]
        for name in names:
            # cli imports the names, so its bindings get the counted ones too
            monkeypatch.setattr(cli, name, getattr(stringy, name), raising=False)
        run(capsys, command, str(corpus / path))
        assert [c[name] for c, name in zip(calls, names)] == [expected, expected]


class TestDefect:
    def test_node_fiber(self, corpus, capsys):
        code, out, _ = run(capsys, "defect", str(corpus / "fiber_node.json"))
        assert code == 0
        assert "sigma = 1" in out

    def test_p2_fiber(self, corpus, capsys):
        code, out, _ = run(
            capsys, "defect", str(corpus / "fiber_p2.json"), "--format", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fibers"][0]["local_defect"] == 0

    def test_missing_block(self, corpus, capsys):
        code, _, err = run(capsys, "defect", str(corpus / "smooth_p3.json"))
        assert code == 2
        assert "fibers" in err

    def test_malformed_pair_counts(self, tmp_path, capsys):
        doc = {
            "dim": 3,
            "components": [],
            "strata": {"": {"0,0": 1, "3,3": 1}},
            "fibers": [
                {
                    "point": "x1",
                    "components": [
                        {"id": "F1", "discrepancy": 1, "diamond": {"0,0": 1, "1,1": 2, "2,2": 1}}
                    ],
                    "pairwise_counts": {"F1,F9": 1},
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "defect", str(path))
        assert code == 2
        assert "unknown components" in err


class TestCompare:
    def test_crepant_resolutions_equal(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            str(corpus / "node3fold_blowup.json"),
            str(corpus / "node3fold_small.json"),
        )
        assert code == 0
        assert "EQUAL" in out

    def test_file_vs_itself(self, corpus, capsys):
        path = str(corpus / "burkhardt_x0.json")
        code, _, _ = run(capsys, "compare", path, path)
        assert code == 0

    def test_mislabeled_discrepancy_differs_at_w2(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            str(corpus / "node3fold_wrong_discrepancy.json"),
            str(corpus / "node3fold_small.json"),
            "--format",
            "machine",
        )
        assert code == 1
        doc = json.loads(out)
        assert (doc["first_difference"]["p"], doc["first_difference"]["q"]) == (2, 2)

    def test_dimension_mismatch(self, corpus, capsys):
        code, _, err = run(
            capsys,
            "compare",
            str(corpus / "smooth_p3.json"),
            str(corpus / "synthetic_negative_fourfold.json"),
        )
        assert code == 2
        assert "dimension mismatch" in err

    def test_text_names_a_mismatch_past_twice_the_dimension(self, tmp_path, capsys):
        # E_st differs only from u^6 v^6 on, past 2*2+2; no bound hides it
        paths = []
        for a in (5, 6):
            doc = {"dim": 2, "components": [{"id": "E", "discrepancy": a}],
                   "strata": {"": {"0,0": 1, "1,1": 2, "2,2": 1}, "E": {"0,0": 1, "1,1": 1}}}
            paths.append(tmp_path / f"a{a}.json")
            paths[-1].write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "compare", *map(str, paths))
        assert code == 1
        assert out == "stringy E-functions DIFFER: first mismatch at u^6 v^6 (1 vs 0)\n"


@pytest.mark.parametrize("command", ["compute", "check"])
def test_negative_max_degree_is_input_error(command, corpus, capsys):
    code, out, err = run(capsys, command, str(corpus / "node3fold_small.json"),
                         "--max-degree", "-1")
    assert code == 2 and not out
    assert "expansion bound must be nonnegative" in err


@pytest.mark.parametrize("name", ["node3fold_blowup.json", "chain_snc.json"])
def test_max_degree_zero_reports_the_origin_alone(name, corpus, capsys):
    # bound 0 is a valid bound: p + q <= 0 leaves exactly the entry (0, 0)
    path = str(corpus / name)
    code, out, _ = run(capsys, "compute", path, "--max-degree", "0", "--format", "machine")
    doc = json.loads(out)
    assert code == 0 and doc["expansion_bound"] == 0
    assert doc["b_coefficients"] == doc["stringy_hodge_numbers"] == {"0,0": 1}
    code, out, _ = run(capsys, "compute", path, "--max-degree", "0")
    assert code == 0 and [line for line in out.splitlines() if line.startswith("  h^")] == [
        "  h^{0,0}_st = 1"]
    code, out, _ = run(capsys, "check", path, "--max-degree", "0", "--format", "machine")
    doc = json.loads(out)
    assert code == 0 and doc["expansion_bound"] == 0 and doc["all_nonnegative"]
    assert doc["values"] == {"0,0": 1} and doc["verdicts"] == {"0,0": "nonnegative"}
    assert doc["provenance"] == {"0,0": "closed-form"}
    code, out, _ = run(capsys, "check", path, "--max-degree", "0")
    assert code == 0 and "all stringy Hodge numbers with p+q <= 0 are nonnegative\n" in out


def descriptor_doc(d, break_duality):
    """The JSON document of a descriptor; with break_duality, the ambient
    h^{0,0} is raised by one, which validate() accepts and duality does not."""
    strata = {",".join(J): {f"{p},{q}": c for (p, q), c in diamond.h.items()}
              for J, diamond in d.strata.items()}
    if break_duality:
        strata[""]["0,0"] += 1
    return {"dim": d.n, "label": d.label, "strata": strata,
            "components": [{"id": cid, "discrepancy": a} for cid, a in d.components]}


def sorted_reference(command, path, bound):
    """What compute or check print in machine form, from a document whose maps
    are all built in (p, q) order, as the encoder's sorting makes no need to."""
    d = load_bundle(path).descriptor
    pq_map, note = cli._pq_map, cli.EXPANSION_NOTE
    if command == "compute":
        report = stringy_hodge_table(d, bound)
        h_st = report.h_st_table()
        doc = {
            "label": report.label, "dim": report.n, "expansion_bound": report.bound,
            "expansion_point": note,
            "e_function": {"numerator": pq_map(report.e_function.numerator.terms),
                           "denominator_factors": list(report.e_function.denominator.factors)},
            "polynomial": pq_map(report.polynomial.terms) if report.polynomial else None,
            "b_coefficients": pq_map(report.coefficients),
            "stringy_hodge_numbers": pq_map(h_st),
            "checks": {"symmetry": check_symmetry(d), "poincare_duality": check_pd_identity(d),
                       "polynomial_consequences": check_polynomial_consequences(d)},
            "negative_at": [f"{p},{q}" for (p, q), h in sorted(h_st.items()) if h < 0],
        }
    else:
        report = conjecture_report(d, bound)
        doc = {
            "label": report.label, "dim": report.n, "expansion_bound": report.bound,
            "expansion_point": note, "polynomial": report.polynomial,
            "verdicts": pq_map(report.verdicts), "values": pq_map(report.values),
            "provenance": pq_map(report.provenance),
            "negative_details": pq_map(report.negative_details),
            "threefold_inequality": report.threefold_inequality,
            "all_nonnegative": report.all_nonnegative(),
        }
    return json.dumps(doc, sort_keys=True) + "\n"


class TestMachineMapsNeedNoOrder:
    """compute and check build the maps that only the encoder reads unsorted;
    the encoder sorts every key, so the bytes are those of sorted maps."""

    @settings(max_examples=60, deadline=None)
    @given(descriptors(max_dim=3, max_components=4), st.booleans(),
           st.one_of(st.none(), st.integers(0, 10)))
    def test_unsorted_maps_print_the_sorted_bytes(self, tmp_path_factory, d, break_duality,
                                                  bound):
        path = tmp_path_factory.mktemp("drawn") / "d.json"
        path.write_text(json.dumps(descriptor_doc(d, break_duality)), encoding="utf-8")
        bound_argv = [] if bound is None else ["--max-degree", str(bound)]
        for command in ("compute", "check"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main([command, str(path), *bound_argv, "--format", "machine"])
            assert out.getvalue() == sorted_reference(command, str(path), bound)


class TestDefectFlags:
    @pytest.mark.parametrize("command, paths", [
        ("defect", ["fiber_node.json"]),
        ("compare", ["node3fold_wrong_discrepancy.json", "node3fold_small.json"]),
    ], ids=["defect", "compare"])
    def test_max_degree_not_accepted(self, command, paths, corpus, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *(str(corpus / f) for f in paths), "--max-degree", "3"])
        assert exc.value.code == 2
        assert "--max-degree" in capsys.readouterr().err


class TestParserBuiltOnce:
    def test_reused_across_calls_and_after_bad_argv(self, corpus, capsys, monkeypatch,
                                                     count_calls):
        monkeypatch.setattr(cli, "_PARSER", None)
        builds = count_calls(cli, "build_parser")
        computes = count_calls(cli, "cmd_compute")  # rebound after the parser exists
        path = str(corpus / "smooth_p3.json")
        assert main(["compute", path]) == 0
        assert main(["check", path]) == 0
        assert builds["build_parser"] == 1
        with pytest.raises(SystemExit) as exc:
            main(["compute"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "compute", path, "--format", "machine")
        assert code == 0 and json.loads(out)["dim"] == 3
        assert builds["build_parser"] == 1
        assert computes["cmd_compute"] == 2


PARSER = cli.build_parser()
POSITIONALS = {"compute": 1, "check": 1, "defect": 1, "compare": 2}
BOUNDED = ("compute", "check")
TOKENS = ["a.json", "b.json", "--format", "text", "machine", "MACHINE", "--max-degree", "3",
          "007", "-1", "\u0663", "9" * 5000, "--form", "--format=machine", "-h", "--", "-", "",
          "x y"]


@st.composite
def plain_argvs(draw):
    """An argv of the plain grammar, options in any order, and the Namespace it means."""
    command = draw(st.sampled_from(sorted(POSITIONALS)))
    paths = draw(st.lists(st.sampled_from(["a.json", "x y", "text", "machine", "compute", "3",
                                           "\u0663", "corpus/b.json"]),
                          min_size=POSITIONALS[command], max_size=POSITIONALS[command]))
    flags = ["--format", "--max-degree"] if command in BOUNDED else ["--format"]
    bounds = st.sampled_from(["0", "3", "007", "9" * 640]) | st.integers(0, 10**30).map(str)
    options = [
        (flag, draw(st.sampled_from(["text", "machine"]) if flag == "--format" else bounds))
        for flag in draw(st.lists(st.sampled_from(flags), max_size=4))
    ]
    argv = [command]
    expected = {"command": command, "format": "text"}
    if command in BOUNDED:
        expected["max_degree"] = None
    positionals = iter(paths)
    for item in draw(st.permutations([None] * len(paths) + options)):
        if item is None:
            argv.append(next(positionals))
        else:  # the last value of a repeated option is kept
            argv += item
            flag, value = item
            expected[flag[2:].replace("-", "_")] = int(value) if flag == "--max-degree" else value
    names = ["path_a", "path_b"] if command == "compare" else ["path"]
    return argv, {**expected, **dict(zip(names, paths))}


class TestPlainArgv:
    """`main` reads a plain argv without argparse, into argparse's own Namespace."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(POSITIONALS)) | st.sampled_from(TOKENS),
           st.lists(st.sampled_from(TOKENS), max_size=6))
    def test_an_accepted_argv_reads_as_argparse_reads_it(self, first, rest):
        args = cli._plain([first, *rest])
        if args is not None:
            assert vars(args) == vars(PARSER.parse_args([first, *rest]))

    @settings(max_examples=400, deadline=None)
    @given(plain_argvs(), st.lists(st.tuples(st.integers(0, 9), st.sampled_from(TOKENS),
                                             st.booleans()), min_size=1, max_size=2))
    def test_a_plain_argv_with_tokens_put_in_reads_as_argparse_reads_it(self, case, edits):
        # near the edge of the grammar: one or two tokens of the alphabet put in or swapped in
        argv = case[0]
        for index, token, insert in edits:
            index %= len(argv) + 1
            argv[index:index + (not insert)] = [token]
        args = cli._plain(argv)
        if args is not None:
            assert vars(args) == vars(PARSER.parse_args(argv))

    @settings(max_examples=300, deadline=None)
    @given(plain_argvs())
    def test_every_plain_argv_is_accepted(self, case):
        argv, expected = case
        args = cli._plain(argv)
        assert args is not None and vars(args) == expected
        assert vars(PARSER.parse_args(argv)) == expected

    @pytest.mark.parametrize("argv", [
        [], ["compute"], ["compute", "a", "b"], ["compare", "a"], ["compute", ""],
        ["compute", "-"], ["compute", "a", "--"], ["compute", "a", "--format"],
        ["compute", "a", "--format", "MACHINE"], ["compute", "a", "--format=machine"],
        ["compute", "a", "--form", "machine"], ["compute", "a", "--max-degree"],
        ["compute", "a", "--max-degree", "-1"], ["compute", "a", "--max-degree", "\u0663"],
        ["compute", "a", "--max-degree", "9" * 5000], ["compute", "a", "--max-degree", " 3"],
        ["compare", "a", "b", "--max-degree", "3"], ["defect", "a", "-h"], ["stringy", "a"],
        ["compute", Path("a")],
    ])
    def test_any_other_argv_goes_to_argparse(self, argv):
        assert cli._plain(argv) is None


class TestArgparseRoute:
    """What the plain reader leaves to argparse still works, end to end."""

    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "usage: stringy [-h]"),
        (["compute", "--help"], "usage: stringy compute [-h]"),
    ])
    def test_help_exits_0_with_its_usage(self, argv, usage, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(usage)

    @pytest.mark.parametrize("command", ["compute", "check"])
    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.json")))
    def test_argparse_spellings_give_the_plain_output(self, command, name, corpus, capsys):
        path = str(corpus / name)
        for plain, spellings in (
            (["--format", "machine"], (["--format=machine"], ["--form", "machine"])),
            (["--max-degree", "2"], (["--max-degree=2"], ["--max", "2"])),
        ):
            expected = run(capsys, command, path, *plain)
            for spelling in spellings:
                assert cli._plain([command, path, *spelling]) is None
                assert run(capsys, command, path, *spelling) == expected


class TestMachineEncoding:
    def test_kept_key_spellings_are_bounded(self):
        table = {(p, 10**6 - p): p for p in range(3000)}
        assert list(cli._pq_map(table)) == [f"{p},{10**6 - p}" for p in range(3000)]
        assert len(cli._PQ_KEYS) <= 1024


WRONG_CLOSED_FORM = """
import sys
import stringyhodge.analysis
from stringyhodge.cli import main

if __debug__ != (sys.argv[2] == "plain"):
    sys.exit(99)  # not running in the mode the test asked for
stringyhodge.analysis.closed_form_h = lambda d, p, q: 10**9
sys.exit(main(["check", sys.argv[1]]))
"""


class TestCrossCheckFailure:
    def test_exit_code_3_on_one_line(self, corpus, capsys, monkeypatch):
        monkeypatch.setattr("stringyhodge.analysis.closed_form_h", lambda d, p, q: 10**9)
        code, out, err = run(capsys, "check", str(corpus / "burkhardt_x0.json"))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "closed form" in err

    @pytest.mark.parametrize("mode, flags", [("plain", []), ("optimized", ["-O"])])
    def test_survives_optimized_mode(self, mode, flags, corpus, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        script = tmp_path / "wrong_closed_form.py"
        script.write_text(WRONG_CLOSED_FORM, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, *flags, str(script), str(corpus / "burkhardt_x0.json"), mode],
            capture_output=True,
            encoding="utf-8",
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestCrashIsNotAVerdict:
    """Exit 2 is for the package's input errors and exit 1 for verdicts; any
    other exception is a defect of the library and exits 3 on one line."""

    @pytest.mark.parametrize("command", ["compute", "check"])
    @pytest.mark.parametrize("doc", [
        {"dim": 2**70, "strata": {"": {"0,0": 1, "1,1": 3, "2,2": 3, "3,3": 1}}},
        {"dim": 2, "components": [{"id": "E", "discrepancy": 2**70}],
         "strata": {"": [[1, 0, 0], [0, 2, 0], [0, 0, 1]], "E": [[1, 0], [0, 1]]}},
    ], ids=["dim", "discrepancy"])
    def test_too_large_an_integer_exits_3(self, command, doc, tmp_path, capsys):
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, command, str(path), "--format", "machine")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: OverflowError: ") and err.count("\n") == 1

    def test_a_discrepancy_too_large_to_assemble_compares_by_its_table(self, tmp_path, capsys):
        # equal signature tables answer "equal" with no E_st assembled, so X
        # against itself or a relabelled copy exits 0; a pair whose tables
        # differ is assembled and exits 3 on one line, as compute and check do
        paths = {}
        cases = (("x", "E", 2**70), ("relabelled", "F", 2**70), ("next", "E", 2**70 + 1))
        for name, cid, a in cases:
            doc = {"dim": 2, "components": [{"id": cid, "discrepancy": a}],
                   "strata": {"": [[1, 0, 0], [0, 2, 0], [0, 0, 1]], cid: [[1, 0], [0, 1]]}}
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        for other in ("x", "relabelled"):
            code, out, _ = run(capsys, "compare", str(paths["x"]), str(paths[other]),
                               "--format", "machine")
            assert code == 0 and json.loads(out)["equal"] is True
        code, out, err = run(capsys, "compare", str(paths["x"]), str(paths["next"]),
                             "--format", "machine")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: OverflowError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("exc, line", [
        (ValueError("two\nlines"), "ValueError: two lines"),  # no input error of the package
        (MemoryError(), "MemoryError"),
    ], ids=["ValueError", "MemoryError"])
    def test_any_other_exception_is_named_on_one_line(self, exc, line, corpus, capsys,
                                                       monkeypatch):
        def broken(d, p, q):
            raise exc

        monkeypatch.setattr("stringyhodge.analysis.closed_form_h", broken)
        code, out, err = run(capsys, "check", str(corpus / "burkhardt_x0.json"))
        assert (code, out, err) == (3, "", f"internal error: {line}\n")

