"""One benchmark process: set a workload up, then measure or trace it.

run.py starts this script in a fresh interpreter with the checkout's `src`
on PYTHONPATH.  It prints one JSON object on stdout and nothing else; the
output of the package's CLI is captured.

Roles:
  setup     set up once (import, write inputs, one warm-up call) and report
            the set-up time
  measure   set up, then run the batch, sized to --seconds, through once;
            time each call and check each output
  untraced  set up a batch sized to TRACE_SECONDS, run it through once and
            report the sum of its call latencies
  traced    the same with the package traced; also report the per-layer
            metrics

The warm-up call's input is not part of the batch, and the batch holds no
call twice, so no call is timed on anything the process kept from an
earlier identical call.  Set-up time and call latencies are reported at the
reference CPU speed of calibration.py; the per-layer times are raw.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time counts from here, before the package is imported

import calibration

K0 = calibration.kernel_seconds()

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import stringyhodge
from stringyhodge import cli, descriptors, sncweights, stringy

import checks
import families

ROOT = Path(__file__).resolve().parent.parent
TRACE_SECONDS = 4  # reference-speed length of the batch of a traced run


def run_call(call):
    """Execute one call; returns (exit code, output, seconds)."""
    if call.kind == "purity":
        t0 = perf_counter()
        bundle = descriptors.load_bundle(call.paths[0])
        out = sncweights.purity_consequence_check(bundle.snc, 1, 1)
        return 0, out, perf_counter() - t0
    if call.kind == "a_pq":
        t0 = perf_counter()
        bundle = descriptors.load_bundle(call.paths[0])
        out = stringy.a_pq(bundle.descriptor, 2, 2)
        return 0, out, perf_counter() - t0
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        code = cli.main(call.argv())
        seconds = perf_counter() - t0
    return code, buf.getvalue(), seconds


class Runner:
    """Runs calls, keeps their latencies and checks every output.

    While `kernel` holds the latest calibration kernel time, each latency is
    scaled to the reference speed with a kernel time taken after the call.
    """

    def __init__(self, reference):
        self.reference = reference
        self.times = []  # latency of each call
        self.kernel = None
        self.kernels = []
        self.attempted = 0
        self.failures = []
        self.tracer = None

    def run(self, call, index):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.call_id = index
        try:
            code, out, seconds = run_call(call)
        except (Exception, SystemExit) as exc:
            self.failures.append(f"{call.ref}: raised {exc!r}")
            return
        if self.kernel is not None:
            after = calibration.kernel_seconds()
            seconds *= calibration.KERNEL_REF_S / ((self.kernel + after) / 2)
            self.kernel = after
            self.kernels.append(after)
        self.times.append(seconds)
        try:
            problems = checks.check(call, code, out, self.reference)
        except Exception as exc:
            problems = [f"output check raised {exc!r}"]
        if problems:
            self.failures.append(f"{call.ref}: " + "; ".join(problems))

    def run_all(self, calls):
        for index, call in enumerate(calls):
            self.run(call, index)


def set_up(args, seconds, workdir, runner, small_order):
    """Write the inputs and make the warm-up call; returns the batch and set-up time."""
    warmup, calls = families.build_batch(args.workload, args.seed, seconds, workdir,
                                         ROOT / "corpus", small_order)
    runner.run(warmup, -1)
    runner.times.clear()
    setup_s = perf_counter() - T0
    return calls, setup_s * calibration.KERNEL_REF_S / ((K0 + calibration.kernel_seconds()) / 2)


def measure(runner, calls):
    """Run the batch through once, timing each call at the reference speed."""
    runner.kernel = calibration.kernel_seconds()
    begin = perf_counter()
    runner.run_all(calls)
    wall = perf_counter() - begin
    latencies = sorted(runner.times)
    n = len(latencies)
    # highest percentile with at least 10 calls beyond it
    tail_index = max(n - 11, 0)
    return {
        "wall_s": wall,
        "slowdown": statistics.median(runner.kernels) / calibration.KERNEL_REF_S,
        "calls": n,
        "latency_sum_s": sum(latencies),
        "p50_ms": 1000 * statistics.median(latencies),
        "tail_ms": 1000 * latencies[tail_index],
        "tail_pct": 100 * (tail_index + 1) / n,
        "beyond_tail": n - tail_index - 1,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def untraced(runner, calls):
    runner.kernel = calibration.kernel_seconds()
    runner.run_all(calls)
    return {"latency_sum_s": sum(runner.times)}


def traced(args, runner, calls):
    from tracing import Tracer

    tracer = Tracer(stringyhodge)
    runner.tracer = tracer
    tracer.install()
    try:
        result = untraced(runner, calls)
    finally:
        tracer.uninstall()
        runner.tracer = None
    path = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(path)
    return {
        **result,
        "spans": len(tracer.start),
        "trace_file": str(path.relative_to(ROOT)),
        "table": tracer.table(),
        "metrics": tracer.metrics(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "untraced", "traced"))
    parser.add_argument("--workload", required=True, choices=families.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args()

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    workdir = work / f"{args.role}-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        reference = checks.load_reference()
        runner = Runner(reference["calls"])
        seconds = TRACE_SECONDS if args.role in ("untraced", "traced") else args.seconds
        calls, setup_s = set_up(args, seconds, workdir, runner, reference["small_order"])
        result = {"setup_s": setup_s}
        if args.role == "measure":
            result.update(measure(runner, calls))
        elif args.role == "untraced":
            result.update(untraced(runner, calls))
        elif args.role == "traced":
            result.update(traced(args, runner, calls))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=runner.attempted, failures=runner.failures)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
