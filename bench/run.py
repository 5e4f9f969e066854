"""End-to-end and per-layer benchmark of stringyhodge.

Usage, from the root of a checkout:

    python3 bench/run.py --workload simplex --seed 1 --seconds 15 --trace 0

Each run starts fresh worker processes (bench/worker.py) with the
checkout's `src` on PYTHONPATH; the package is run from source.  Load model:
a closed loop with one client, one process and one thread.  Each call is one
`stringyhodge.cli.main(argv)` with `--format machine` and stdout captured,
or one library call where the CLI has no command for it.

With `--trace 0` the run writes a batch of calls sized to take --seconds at
the reference CPU speed, runs it through once (no call is repeated) and
reports the end-to-end metrics:

  setup_s       median over five fresh processes of the time to import the
                package, write the seeded inputs and finish one warm-up call
  calls_per_s   calls completed divided by the timed run's duration at the
                reference speed, i.e. by the sum of the call latencies (the
                output checks and the speed calibration are not timed)
  call_p50_ms   median call latency
  call_tail_ms  latency at the highest percentile with at least ten calls
                beyond it
  peak_rss_mb   ru_maxrss of the measuring process

Times are given at the reference CPU speed of calibration.py, which takes
out the changing load of the neighbours on a shared machine; each run also
prints how much slower than the reference the machine ran.  With
`--trace 1` the run makes a smaller batch of the same workload (see
worker.TRACE_SECONDS) in one untraced and one traced process and reports
the per-layer metrics (see tracing.py, raw times) and the tracing overhead
(the difference of the two processes' latency sums at the reference speed).
Every output is checked (see checks.py); the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from families import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 5  # fresh processes that time set-up; the measuring one is the last
TIMEOUT_S = 150  # per worker process


class BenchError(Exception):
    pass


def worker(role: str, args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(WORKER), role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker did not finish within {TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    """Non-blank lines of the package source."""
    return sum(
        1
        for path in sorted((ROOT / "src" / "stringyhodge").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def report_failures(failures) -> None:
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures", file=sys.stderr)


def end_to_end(args) -> dict:
    setups = [worker("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    m = worker("measure", args)
    setups.append(m["setup_s"])
    failed = len(m["failures"])
    report_failures(m["failures"])
    metrics = {
        "calls_per_s": (m["calls"] / m["latency_sum_s"], "1/s"),
        "call_p50_ms": (m["p50_ms"], "ms"),
        "call_tail_ms": (m["tail_ms"], "ms"),
        "peak_rss_mb": (m["rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {m['calls']} calls in "
          f"{m['wall_s']:.2f} s; the machine ran {m['slowdown']:.2f} times slower "
          f"than the reference")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.4f} {unit}")
    print(f"  call_tail_ms is the p{m['tail_pct']:.2f} latency: "
          f"{m['beyond_tail']} of {m['calls']} calls were slower")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"  error_rate     {failed}/{m['attempted']} = {failed / m['attempted']:.4f}")
    return {"attempted": m["attempted"], "failed": failed, "metrics": metrics}


def per_layer(args) -> dict:
    u = worker("untraced", args)
    t = worker("traced", args)
    failures = u["failures"] + t["failures"]
    attempted = u["attempted"] + t["attempted"]
    report_failures(failures)
    metrics = {name: tuple(v) for name, v in t["metrics"].items()}
    metrics["src_lines"] = (src_lines(), "count")
    print(f"workload {args.workload}, seed {args.seed}: traced run, {t['spans']} spans "
          f"written to {t['trace_file']}")
    print(f"  {'span':<45} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, (calls, total, self_s) in t["table"].items():
        print(f"  {name:<45} {calls:9d} {total:10.4f} {self_s:10.4f}")
    print("  per-layer metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<45} {value:>14} {unit}")
    print(f"  tracing overhead: {t['latency_sum_s'] - u['latency_sum_s']:.3f} s at the reference "
          f"speed (traced {t['latency_sum_s']:.3f} s, untraced {u['latency_sum_s']:.3f} s)")
    print(f"  error_rate {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stringyhodge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "stringyhodge" / "__init__.py", ROOT / "corpus")
               if not p.exists()]
    if missing:
        print(f"error: not a stringyhodge checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    try:
        result = per_layer(args) if args.trace else end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
