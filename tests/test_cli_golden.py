"""CLI output pinned byte for byte: SHA-256 of stdout and stderr, and the exit code.

The digests in cli_golden.json were recorded from the package before the
dense series kernel replaced the sparse w-polynomial arithmetic; every later
change must reproduce them.  Paths are passed relative to the repository
root, so the digests do not depend on where the checkout lives.  To record
them anew after a deliberate change of output, run
`PYTHONPATH=src python tests/test_cli_golden.py` from the repository root.
"""

import hashlib
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from stringyhodge.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
CORPUS_FILES = sorted(p.name for p in (ROOT / "corpus").glob("*.json"))
COMPARE_PAIRS = (
    ("node3fold_blowup.json", "node3fold_small.json"),
    ("node3fold_blowup.json", "node3fold_wrong_discrepancy.json"),
    ("fiber_p2.json", "smooth_p3.json"),
    ("synthetic_negative_fourfold.json", "burkhardt_times_p1.json"),
    ("burkhardt_x0.json", "node3fold_small.json"),
)
CASES = [
    (command, (name,), fmt)
    for name in CORPUS_FILES
    for command in ("compute", "check", "defect")
    for fmt in ("text", "machine")
] + [("compare", pair, fmt) for pair in COMPARE_PAIRS for fmt in ("text", "machine")]


def case_id(command, names, fmt):
    return " ".join((command, *names, fmt))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(command, names, fmt):
    """Exit code and the digests of stdout and stderr of one CLI call."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, *(f"corpus/{name}" for name in names), "--format", fmt])
    return {"exit": code, "stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue())}


@pytest.mark.parametrize("command, names, fmt", CASES, ids=[case_id(*c) for c in CASES])
def test_output_is_byte_identical(command, names, fmt, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text())
    assert run_case(command, names, fmt) == golden[case_id(command, names, fmt)]


def test_every_case_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(case_id(*c) for c in CASES)


if __name__ == "__main__":
    os.chdir(ROOT)
    doc = {case_id(*c): run_case(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(doc)} cases in {GOLDEN}", file=sys.stderr)
