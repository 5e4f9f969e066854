"""The CLI under `python -O`, which strips every `assert`, must print the same bytes.

A check written as a bare `assert` would vanish under -O and let a call exit
0 where it should exit 1 or 2; running a few pinned cases of cli_golden.json
in optimized subprocesses catches that.  The cases cover a failed check
(exit 1 on a negative stringy Hodge number), a defect on a file without
fibers (exit 2), a comparison, an SNC file and a fiber file.
"""

import json
import os
import subprocess
import sys

from test_cli_golden import GOLDEN, ROOT, case_id, sha256

CASES = [
    ("check", ("synthetic_negative_fourfold.json",), "text"),
    ("compute", ("burkhardt_times_p1.json",), "machine"),
    ("defect", ("smooth_p3.json",), "text"),
    ("compare", ("node3fold_blowup.json", "node3fold_small.json"), "machine"),
    ("compute", ("chain_snc.json",), "text"),
    ("defect", ("fiber_two_quadrics.json",), "machine"),
]


def test_optimized_cli_matches_the_pinned_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, "-O", "-m", "stringyhodge.cli", command,
             *(f"corpus/{name}" for name in names), "--format", fmt],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8",
        )
        for command, names, fmt in CASES
    ]
    for case, proc in zip(CASES, procs):
        out, err = proc.communicate(timeout=60)
        got = {"exit": proc.returncode, "stdout": sha256(out), "stderr": sha256(err)}
        assert got == golden[case_id(*case)], (case_id(*case), err)
