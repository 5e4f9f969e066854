import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stringyhodge import cli, stringy
from stringyhodge.cli import main


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

    def test_max_degree_bounds_the_search_not_the_verdict(self, corpus, capsys):
        paths = (
            str(corpus / "node3fold_wrong_discrepancy.json"),
            str(corpus / "node3fold_small.json"),
        )
        code, out, _ = run(capsys, "compare", *paths, "--max-degree", "1",
                           "--format", "machine")
        assert code == 1
        doc = json.loads(out)
        assert doc["equal"] is False and doc["first_difference"] is None
        code, out, _ = run(capsys, "compare", *paths, "--max-degree", "1")
        assert code == 1
        assert "agree up to p+q <= 1" in out
        code, out, _ = run(capsys, "compare", *paths, "--max-degree", "4",
                           "--format", "machine")
        assert code == 1
        diff = json.loads(out)["first_difference"]
        assert (diff["p"], diff["q"]) == (2, 2)

    def test_text_names_the_default_bound_searched(self, tmp_path, capsys):
        # E_st differs only from u^6 v^6 on, one past the default bound 2*2+2
        paths = []
        for a in (5, 6):
            doc = {"dim": 2, "components": [{"id": "E", "discrepancy": a}],
                   "strata": {"": {"0,0": 1, "1,1": 2, "2,2": 1}, "E": {"0,0": 1, "1,1": 1}}}
            paths.append(tmp_path / f"a{a}.json")
            paths[-1].write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "compare", *map(str, paths))
        assert code == 1
        assert out == ("stringy E-functions DIFFER, but their expansions agree "
                       "up to p+q <= 6\n")
        code, out, _ = run(capsys, "compare", *map(str, paths), "--max-degree", "20")
        assert "first mismatch at u^6 v^6" in out

    def test_negative_max_degree_is_input_error(self, corpus, capsys):
        # like compute and check; equal E-functions never read the bound
        differing = (str(corpus / "node3fold_wrong_discrepancy.json"),
                     str(corpus / "node3fold_small.json"))
        code, out, err = run(capsys, "compare", *differing, "--max-degree", "-1")
        assert code == 2 and not out
        assert "expansion bound must be nonnegative" in err
        equal = (str(corpus / "node3fold_blowup.json"), str(corpus / "node3fold_small.json"))
        assert run(capsys, "compare", *equal, "--max-degree", "-1")[0] == 0


class TestDefectFlags:
    def test_max_degree_not_accepted(self, corpus, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["defect", str(corpus / "fiber_node.json"), "--max-degree", "3"])
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
