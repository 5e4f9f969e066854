"""The benchmark's tracer still installs on the package and reports every metric.

bench/tracing.py looks up each method it wraps with `cls.__dict__[method]`
and each function by module, so removing or renaming a traced name breaks
the traced benchmark run; this test makes that a test failure instead.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import stringyhodge
from stringyhodge import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command, files, counted", [
    ("compute", ["burkhardt_x0.json"], "stringy.assemblies"),
    ("check", ["burkhardt_x0.json"], "analysis.closed_form_h.calls"),
    ("compare", ["node3fold_blowup.json", "node3fold_small.json"], "polyalg.mul.calls"),
])
def test_tracer_reports_every_per_layer_metric(command, files, counted, corpus, capsys):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in benchmark["per_layer"]}
    tracer = _load_tracing().Tracer(stringyhodge)
    try:
        tracer.install()
        code = cli.main([command, *(str(corpus / f) for f in files), "--format", "machine"])
    finally:
        tracer.uninstall()
    assert code == 0
    json.loads(capsys.readouterr().out)
    metrics = tracer.metrics()
    assert names - {"src_lines"} <= set(metrics)
    assert metrics["descriptors.load_bundle.calls"][0] == len(files)
    assert metrics[counted][0] >= 1
