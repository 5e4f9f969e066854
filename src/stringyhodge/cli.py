"""Command-line front end: `stringy compute|check|defect|compare`.

Exit codes: 0 on success (and all-nonnegative for `check`), 1 when `check`
finds a negative stringy Hodge number or `compare` finds a mismatch, 2 on
input or validation errors, 3 when a closed form disagrees with the series
expansion (a defect of the library, reported on one line).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from typing import Dict

from .analysis import CrossCheckError, conjecture_report, defect_bound_check, local_defect
from .descriptors import DescriptorFileError, load_bundle
from .sncweights import weight_graded_dims
from .stringy import (
    check_pd_identity,
    check_polynomial_consequences,
    check_symmetry,
    crepant_compare,
    first_coefficient_difference,
    stringy_hodge_table,
    _compare_bound,
)

EXPANSION_NOTE = "series expansion taken at the origin (u = v = 0)"


def _emit(doc: Dict[str, object], fmt: str, text_renderer) -> None:
    if fmt == "machine":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        text_renderer(doc)
    # what the output encoding cannot hold (a label under an ASCII locale) is
    # written as a backslash escape, as Python's stderr does, not an error
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    sys.stdout.write(text.getvalue().encode(encoding, "backslashreplace").decode(encoding))


def _pq_map(table) -> Dict[str, object]:
    return {f"{p},{q}": v for (p, q), v in sorted(table.items())}


def cmd_compute(args) -> int:
    bundle = load_bundle(args.path)
    report = stringy_hodge_table(bundle.descriptor, args.max_degree)
    doc: Dict[str, object] = {
        "label": report.label,
        "dim": report.n,
        "expansion_bound": report.bound,
        "expansion_point": EXPANSION_NOTE,
        "e_function": {
            "numerator": _pq_map(report.e_function.numerator.terms),
            "denominator_factors": list(report.e_function.denominator.factors),
        },
        "polynomial": _pq_map(report.polynomial.terms) if report.polynomial else None,
        "b_coefficients": _pq_map(report.coefficients),
        "stringy_hodge_numbers": _pq_map(report.h_st_table()),
        "checks": {
            "symmetry": check_symmetry(bundle.descriptor),
            "poincare_duality": check_pd_identity(bundle.descriptor),
            "polynomial_consequences": check_polynomial_consequences(bundle.descriptor),
        },
        "negative_at": [f"{p},{q}" for p, q in report.negative],
    }
    if bundle.snc is not None:
        top = bundle.snc.max_level()
        doc["snc_h0_weight_dims"] = {
            str(l): weight_graded_dims(bundle.snc, 0, l, 0, 0) for l in range(top)
        }

    def render(doc):
        print(f"== {doc['label'] or args.path} (dim {doc['dim']}) ==")
        print(f"E_st = {report.e_function}")
        if report.polynomial is not None:
            print(f"polynomial: {report.polynomial}")
        else:
            print("not a polynomial; coefficients below are expansion coefficients")
        print(f"({doc['expansion_point']}, bound {doc['expansion_bound']})")
        print("stringy Hodge numbers h^{p,q}_st:")
        for key, value in doc["stringy_hodge_numbers"].items():
            print(f"  h^{{{key}}}_st = {value}")
        checks = doc["checks"]
        print(f"u<->v symmetry: {checks['symmetry']}")
        pd = checks["poincare_duality"]
        print(f"Poincare duality identity: {'inconclusive' if pd is None else pd}")
        if "snc_h0_weight_dims" in doc:
            dims = ", ".join(
                f"Gr^W_0 H^{l}(D) = {v}" for l, v in doc["snc_h0_weight_dims"].items()
            )
            print(f"SNC dual-complex weights (H^0 row): {dims}")
        if doc["negative_at"]:
            print(f"NEGATIVE stringy Hodge numbers at: {doc['negative_at']}")

    _emit(doc, args.format, render)
    return 0


def cmd_check(args) -> int:
    bundle = load_bundle(args.path)
    report = conjecture_report(bundle.descriptor, args.max_degree)
    doc = {
        "label": report.label,
        "dim": report.n,
        "expansion_bound": report.bound,
        "expansion_point": EXPANSION_NOTE,
        "polynomial": report.polynomial,
        "verdicts": _pq_map(report.verdicts),
        "values": _pq_map(report.values),
        "provenance": _pq_map(report.provenance),
        "negative_details": _pq_map(report.negative_details),
        "threefold_inequality": report.threefold_inequality,
        "all_nonnegative": report.all_nonnegative(),
    }

    def render(doc):
        print(f"== {doc['label'] or args.path} (dim {doc['dim']}) ==")
        print(f"polynomial stringy E-function: {doc['polynomial']}")
        if doc["all_nonnegative"]:
            print(f"all stringy Hodge numbers with p+q <= {doc['expansion_bound']} are nonnegative")
        else:
            for key, detail in doc["negative_details"].items():
                print(
                    f"NEGATIVE h^{{{key}}}_st = {detail['h_st']} "
                    f"(a_pq = {detail['a_pq']}, "
                    f"discrepancy-1 count = {detail['discrepancy_one_count']})"
                )
        if doc["threefold_inequality"] is not None:
            print(f"threefold h^{{2,2}}_st >= h^{{1,1}}_st: {doc['threefold_inequality']}")

    _emit(doc, args.format, render)
    return 0 if report.all_nonnegative() else 1


def cmd_defect(args) -> int:
    bundle = load_bundle(args.path)
    if not bundle.fibers:
        raise DescriptorFileError(args.path, "no `fibers` block in this file")
    rows = []
    for fd in bundle.fibers:
        rows.append(
            {
                "point": fd.point,
                "local_defect": local_defect(fd),
                "bound_satisfied": defect_bound_check(fd),
                "discrepancy_one_count": fd.discrepancy_one_count(),
            }
        )
    doc = {"label": bundle.descriptor.label, "fibers": rows}

    def render(doc):
        print(f"== {doc['label'] or args.path}: local defects ==")
        for row in doc["fibers"]:
            status = "ok" if row["bound_satisfied"] else "VIOLATED (not geometrically realizable)"
            print(
                f"  {row['point']}: sigma = {row['local_defect']}, "
                f"discrepancy-1 bound {row['discrepancy_one_count']}: {status}"
            )

    _emit(doc, args.format, render)
    return 0


def cmd_compare(args) -> int:
    d1 = load_bundle(args.path_a).descriptor
    d2 = load_bundle(args.path_b).descriptor
    equal = crepant_compare(d1, d2)
    diff = None if equal else first_coefficient_difference(d1, d2, args.max_degree)
    doc = {
        "labels": [d1.label, d2.label],
        "equal": equal,
        "first_difference": (
            None
            if diff is None
            else {"p": diff[0], "q": diff[1], "b_a": diff[2], "b_b": diff[3]}
        ),
    }

    def render(doc):
        if doc["equal"]:
            print("stringy E-functions are EQUAL (exact rational-function identity)")
        elif doc["first_difference"] is None:
            print(
                "stringy E-functions DIFFER, but their expansions agree "
                f"up to p+q <= {_compare_bound(d1, d2, args.max_degree)}"
            )
        else:
            d = doc["first_difference"]
            print(
                "stringy E-functions DIFFER: first mismatch at "
                f"u^{d['p']} v^{d['q']} ({d['b_a']} vs {d['b_b']})"
            )

    _emit(doc, args.format, render)
    return 0 if equal else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringy",
        description="Exact stringy E-function and stringy Hodge number computations "
        "from JSON log-resolution descriptors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, max_degree_help=None):
        if max_degree_help:
            p.add_argument("--max-degree", type=int, default=None, help=max_degree_help)
        p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("compute", help="full stringy report for one descriptor")
    p.add_argument("path")
    add_common(p, "expansion bound on p+q (default 2*dim)")

    p = sub.add_parser("check", help="nonnegativity verdicts (exit 1 on a negative)")
    p.add_argument("path")
    add_common(p, "expansion bound on p+q (default 2*dim)")

    p = sub.add_parser("defect", help="per-point local defect table")
    p.add_argument("path")
    add_common(p)

    p = sub.add_parser("compare", help="exact equality of two stringy E-functions")
    p.add_argument("path_a")
    p.add_argument("path_b")
    add_common(p, "bound on p+q for locating the first mismatch (default 2*dim+2); "
                  "equality is decided exactly")
    return parser


_PARSER = None  # built by the first main() call, reused by later in-process calls


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        # looked up per call, so that a rebound cmd_* takes effect with the cached parser
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:  # every input error class of the package subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
