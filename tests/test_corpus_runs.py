"""Every corpus run of the CLI, each in a fresh process with every warning an
error, default encodings included, exits 0 or 1 with nothing on stderr.

Exit 1 is a verdict of `check` or `compare`.  Machine output must be the
bytes of json.dumps(sort_keys=True) of itself and a line break: one line, keys
sorted, ASCII-escaped, as the standard library writes it.  Text output runs
under the C locale with UTF-8 mode off, so stdout is ASCII and what it cannot
hold must come out as a backslash escape.  The processes run eight at a time,
which keeps the test's memory small and its wall time near that of all at once
on a few cores.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ("-X", "dev", "-X", "warn_default_encoding", "-W", "error")
SINGLE = [
    *((command, (path.name,)) for path in sorted((ROOT / "corpus").glob("*.json"))
      for command in ("compute", "check")),
    *(("defect", (name,))
      for name in ("fiber_node.json", "fiber_p2.json", "fiber_two_quadrics.json")),
]
PAIRS = [
    ("node3fold_blowup.json", "node3fold_small.json"),
    ("node3fold_small.json", "node3fold_blowup.json"),
    ("node3fold_blowup.json", "node3fold_wrong_discrepancy.json"),
    ("node3fold_wrong_discrepancy.json", "node3fold_blowup.json"),
]
CALLS = [
    *((command, names, "machine") for command, names in SINGLE + [("compare", p) for p in PAIRS]),
    *((command, names, "text") for command, names in SINGLE),
]

MACHINE_ENV = dict(os.environ)
MACHINE_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), MACHINE_ENV.get("PYTHONPATH")]))
TEXT_ENV = {key: value for key, value in MACHINE_ENV.items() if key != "PYTHONIOENCODING"}
TEXT_ENV.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")


def problem(call):
    """What is wrong with one run of the CLI, or None."""
    command, names, fmt = call
    proc = subprocess.run(
        [sys.executable, *FLAGS, "-m", "stringyhodge.cli", command,
         *(f"corpus/{name}" for name in names), "--format", fmt],
        cwd=ROOT, env=MACHINE_ENV if fmt == "machine" else TEXT_ENV,
        capture_output=True, timeout=120,
    )
    label = f"{command} {' '.join(names)} --format {fmt}"
    if proc.stderr or proc.returncode not in (0, 1):
        return f"{label}: exit {proc.returncode}\n{proc.stderr.decode(errors='replace')}"
    if fmt == "text":
        return None if proc.stdout.isascii() else f"{label}: stdout is not ASCII"
    out = proc.stdout.decode("utf-8")
    if out != json.dumps(json.loads(out), sort_keys=True) + "\n":
        return f"{label}: machine output differs from json.dumps(sort_keys=True)"
    return None


def test_every_corpus_run_is_clean():
    with ThreadPoolExecutor(max_workers=8) as pool:
        problems = [p for p in pool.map(problem, CALLS) if p]
    assert len(CALLS) == 58 and problems == []
