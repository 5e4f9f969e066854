"""Record bench/reference.json from the package in the checkout's src/.

Runs every call of every pool entry of every workload once, requires each to
pass its independent checks without an input error, and stores a digest of
the representation-independent part of each output (see checks.py), plus
the small pool's order by cost (families.small_cost), which batches are
stratified by:

    python3 bench/record_reference.py --note "seed commit 8d95052"

Record only at a commit whose outputs are trusted; a later change is checked
against these digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import families  # noqa: E402
import worker  # noqa: E402


def pool_entries():
    for workload, shapes in (("simplex", families.SIMPLEX_SHAPES),
                             ("snc", families.SNC_SHAPES)):
        for shape in range(len(shapes)):
            for index in range(families.POOL_PER_SHAPE):
                yield workload, (shape, index)
    for index in range(families.SMALL_POOL):
        yield "small_batch", (index,)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--note", required=True, help="which code the digests come from")
    args = parser.parse_args()
    workdir = ROOT / ".bench_work" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    digests = {}
    small = []
    try:
        batches = [families.corpus_calls(workdir, ROOT / "corpus")]
        batches += (families.write_entry(w, e, workdir) for w, e in pool_entries())
        for calls in batches:
            for call in calls:
                code, out, _ = worker.run_call(call)
                problems = checks.check(call, code, out, None)
                if code == 2 or problems:
                    print(f"{call.ref}: exit {code}; {problems}", file=sys.stderr)
                    return 1
                digests[call.ref] = checks.digest(checks.canonical(call.kind, code, out))
        for index in range(families.SMALL_POOL):
            small.append(digests.pop(f"small/{index}/compute") + digests.pop(f"small/{index}/check"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    order = sorted(range(families.SMALL_POOL), key=families.small_cost)
    checks.REFERENCE.write_text(json.dumps(
        {"note": args.note, "calls": dict(sorted(digests.items())), "small": small,
         "small_order": order}, indent=0) + "\n")
    print(f"recorded {len(digests) + 2 * len(small)} digests in {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
