"""Run the benchmark over several seeds and write a BENCH_<n>.json file.

    python3 bench/baseline.py --seeds 1-10 --out bench/BENCH_0.json

For each seed, every workload runs once untraced (run.py --trace 0) for
BENCHMARK.json's run_seconds; the workloads take turns so that slow phases
of the machine spread over all of them.  Then every workload makes one
traced run (--trace 1) with the first seed.  The file records, per workload
and end-to-end metric, every value, the median, the quartiles and the spread
(interquartile range over median), plus the per-layer metrics of the traced
run.  A performance claim is the diff of two such files made with the same
seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from families import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, help="BENCH_<n>.json to write")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    results = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for w in WORKLOADS:
            results[w].append(run(w, seed, seconds, 0))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in results[w][-1]["metrics"].items()),
                file=sys.stderr)

    doc = {
        "command": "python3 bench/run.py",
        "seconds": seconds,
        "seeds": seeds,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    for w in WORKLOADS:
        runs = results[w]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: {"unit": runs[0]["metrics"][name]["unit"],
                       **summary([r["metrics"][name]["value"] for r in runs])}
                for name in runs[0]["metrics"]
            },
        }
        traced = run(w, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["src_lines"] = entry["per_layer"]["src_lines"]
        doc["workloads"][w] = entry
        print(f"{w}: {entry['failed']}/{entry['attempted']} calls failed")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<14} median {s['median']:12.4f} {s['unit']:<4} "
                  f"IQR/median {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
