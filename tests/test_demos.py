"""Every demo script runs to completion against the package in src/ and
prints the same bytes as when demos_golden.json was recorded.

The file holds the SHA-256 of each demo's stdout.  To record it anew after
a deliberate change of output, run `PYTHONPATH=src python tests/test_demos.py`
from the repository root.
"""

import hashlib
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demos_golden.json"


@cache
def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr.decode()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_stdout_is_pinned(demo):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert hashlib.sha256(run_demo(demo).stdout).hexdigest() == golden[demo.name]


def test_every_demo_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == [d.name for d in DEMOS]


if __name__ == "__main__":
    doc = {}
    for demo in DEMOS:
        result = run_demo(demo)
        if result.returncode != 0:
            sys.exit(f"{demo.name} exited {result.returncode}:\n{result.stderr.decode()}")
        doc[demo.name] = hashlib.sha256(result.stdout).hexdigest()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(doc)} demos in {GOLDEN}", file=sys.stderr)
