"""Span tracing of the package from outside, for the benchmark's traced run.

The tracer wraps every public function of the package's modules, and the
methods the per-layer metrics need, in a recorder of spans (name, start,
end, parent span, benchmark call id).  Each wrapper replaces the function
in every module that binds it, so that calls made inside the package, such
as `cli`'s calls to names imported from `stringy`, are recorded too.  Spans
are kept in flat arrays while the traced pass runs and are written out
afterwards; the per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "descriptors", "hodge", "stringy", "analysis", "polyalg", "sncweights")

# (module, class, method, span name)
METHODS = (
    ("polyalg", "BivariatePoly", "__mul__", "polyalg.mul"),
    ("polyalg", "StringyFunction", "series_coefficients", "polyalg.series"),
    ("polyalg", "StringyFunction", "equals", "polyalg.equals"),
    ("stringy", "ResolutionDescriptor", "validate", "stringy.validate"),
    ("stringy", "ResolutionDescriptor", "level", "stringy.level"),
    ("sncweights", "SncComplexData", "validate", "sncweights.validate"),
)

ASSEMBLERS = ("stringy.stringy_e", "stringy.check_symmetry", "stringy.check_pd_identity")
TIMED = ("stringy_e", "check_symmetry", "check_pd_identity", "stringy_hodge_table",
         "check_polynomial_consequences", "crepant_compare", "first_coefficient_difference")


def signature_groups(d) -> int:
    """Distinct sorted multisets of a_j + 1 over the strata that contribute to E_st."""
    disc = dict(d.components)
    return len({
        tuple(sorted(disc[c] + 1 for c in J))
        for J in d.strata
        if all(disc[c] >= 1 for c in J)
    })


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.names: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.call = array("q")
        self.stack: List[int] = []
        self.call_id = -1
        self.counters: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _wrap(self, span: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        nid = len(self.names)
        self.names.append(span)
        start, end, parent, name, call, stack = (
            self.start, self.end, self.parent, self.name, self.call, self.stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            call.append(self.call_id)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_mul(self, args, result):
        self.counters["polyalg.mul.term_products"] += len(args[0].terms) * len(args[1].terms)

    def _count_matrix_mul(self, args, result):
        a, b = args
        self.counters["sncweights.matrix_mul.fraction_ops"] += (
            len(a) * len(b) * (len(b[0]) if b else 0)
        )

    def _count_load(self, args, result):
        self.counters["descriptors.bytes_read"] += os.path.getsize(args[0])
        self.counters["stringy.strata"] += len(result.descriptor.strata)
        self.counters["stringy.signature_groups"] += signature_groups(result.descriptor)

    def _count_assembly(self, args, result):
        self.counters["polyalg.numerator_terms"] += len(result.numerator.terms)
        self.counters["polyalg.denominator_factors"] += len(result.denominator.factors)

    def install(self) -> None:
        hooks = {
            "polyalg.mul": self._count_mul,
            "sncweights.matrix_mul": self._count_matrix_mul,
            "descriptors.load_bundle": self._count_load,
            "stringy.stringy_e": self._count_assembly,
        }
        replaced: Dict[int, Callable] = {}
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                span = f"{layer}.{attr}"
                replaced[id(obj)] = self._wrap(span, obj, hooks.get(span))
        # rebind in every module that imported the name, and in the package
        for module in (self.package, *self.modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, replaced[id(obj)])
        for layer, cls_name, method, span in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original, hooks.get(span)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------- results

    def write(self, path: Path) -> None:
        """Write the spans as gzip-compressed tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tcall\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.call[i]}\n")

    def table(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its child
        spans; no wrapped function calls itself, so totals do not overlap.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        rows: Dict[str, List[float]] = {}
        for i in range(n):
            row = rows.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - covered[i]
        return {name: (int(c), t, s) for name, (c, t, s) in sorted(rows.items())}

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """The per-layer metrics, each as (value, unit)."""
        rows = self.table()

        def calls(span):
            return rows.get(span, (0, 0.0, 0.0))[0]

        def total(span):
            return rows.get(span, (0, 0.0, 0.0))[1]

        def self_time(span):
            return rows.get(span, (0, 0.0, 0.0))[2]

        out: Dict[str, Tuple[float, str]] = {
            "cli.self_s": (sum(r[2] for name, r in rows.items() if name.startswith("cli.")), "s"),
            "descriptors.load_bundle.calls": (calls("descriptors.load_bundle"), "count"),
            "descriptors.load_bundle.s": (total("descriptors.load_bundle"), "s"),
            "descriptors.bytes_read": (self.counters["descriptors.bytes_read"], "bytes"),
            "hodge.validate.calls": (calls("hodge.validate"), "count"),
            "hodge.validate.s": (total("hodge.validate"), "s"),
            "stringy.validate.calls": (calls("stringy.validate"), "count"),
            "stringy.validate.s": (total("stringy.validate"), "s"),
            "stringy.level.calls": (calls("stringy.level"), "count"),
            "stringy.assemblies": (sum(calls(span) for span in ASSEMBLERS), "count"),
        }
        for fn in TIMED:
            out[f"stringy.{fn}.s"] = (total(f"stringy.{fn}"), "s")
        out.update({
            "stringy.strata": (self.counters["stringy.strata"], "count"),
            "stringy.signature_groups": (self.counters["stringy.signature_groups"], "count"),
            "polyalg.mul.calls": (calls("polyalg.mul"), "count"),
            "polyalg.mul.term_products": (self.counters["polyalg.mul.term_products"], "count"),
            "polyalg.mul.s": (total("polyalg.mul"), "s"),
            "polyalg.series.s": (total("polyalg.series"), "s"),
            "polyalg.divide.s": (total("polyalg.exact_divide_test"), "s"),
            "polyalg.equals.s": (total("polyalg.equals"), "s"),
            "polyalg.numerator_terms": (self.counters["polyalg.numerator_terms"], "count"),
            "polyalg.denominator_factors": (
                self.counters["polyalg.denominator_factors"], "count"),
            "analysis.conjecture_report.self_s": (self_time("analysis.conjecture_report"), "s"),
            # closed_form_h is defined in stringy; analysis.conjecture_report calls it
            "analysis.closed_form_h.calls": (calls("stringy.closed_form_h"), "count"),
            "sncweights.validate.calls": (calls("sncweights.validate"), "count"),
            "sncweights.validate.s": (total("sncweights.validate"), "s"),
            "sncweights.matrix_mul.calls": (calls("sncweights.matrix_mul"), "count"),
            "sncweights.matrix_mul.fraction_ops": (
                self.counters["sncweights.matrix_mul.fraction_ops"], "count"),
            "sncweights.exact_rank.calls": (calls("sncweights.exact_rank"), "count"),
            "sncweights.exact_rank.s": (total("sncweights.exact_rank"), "s"),
            "sncweights.weight_graded_dims.calls": (
                calls("sncweights.weight_graded_dims"), "count"),
        })
        return out
