"""Command-line front end: `stringy compute|check|defect|compare`.

Exit codes: 0 on success (and all-nonnegative for `check`), 1 when `check`
finds a negative stringy Hodge number or `compare` finds a mismatch, 2 on
input or validation errors (the package's four input error classes), 3 on
any other exception, such as a closed form that disagrees with the series
expansion: a defect of the library, reported on one line.

`--max-degree` bounds the expansion of `compute` and `check` only; `compare`
answers "equal" from equal signature tables, assembling no E_st, and otherwise
finds the first mismatch exactly, with no bound (`first_coefficient_difference`).
Machine output is one line of JSON with sorted keys, from one encoder (`_ENCODER`);
only the maps that a text renderer iterates are built in (p, q) order.

A plain argv is read without argparse (`_plain`): a command, its positionals
(none empty or starting with `-`), `--format text|machine` and, for `compute`
and `check`, `--max-degree` with ASCII digits, in any order, a repeated option
keeping its last value. Any other argv (help, `--form`, `--opt=value`, `--`, a
`-1`) goes to argparse, with its messages and exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

from .analysis import CrossCheckError, conjecture_report, defect_bound_check, local_defect
from .descriptors import DescriptorFileError, load_bundle
from .hodge import DiamondError
from .sncweights import SncDataError, weight_graded_dims
from .stringy import (
    DescriptorError,
    check_pd_identity,
    check_polynomial_consequences,
    check_symmetry,
    first_coefficient_difference,
    stringy_hodge_table,
)

EXPANSION_NOTE = "series expansion taken at the origin (u = v = 0)"


_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(doc, sort_keys=True), built once


def _emit(doc: Dict[str, object], fmt: str, text_renderer) -> None:
    if fmt == "machine":
        sys.stdout.write(_ENCODER.encode(doc) + "\n")
        return
    text = "".join(f"{line}\n" for line in text_renderer(doc))
    # what the output encoding cannot hold (a label under an ASCII locale) is
    # written as a backslash escape, as Python's stderr does, not an error
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    sys.stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))


class _Spellings(dict):
    """(p, q) -> "p,q": the first 1024 keys are spelled once per process and
    kept, the rest (large exponents of a numerator) on every use."""

    def __missing__(self, pq):
        key = f"{pq[0]},{pq[1]}"
        if len(self) < 1024:
            self[pq] = key
        return key


_PQ_KEYS = _Spellings()


def _pq_map(table) -> Dict[str, object]:
    """The table keyed by "p,q" spellings in (p, q) order, for a map that a text
    renderer iterates (or whose order a list takes)."""
    pqs = sorted(table)
    return dict(zip(map(_PQ_KEYS.__getitem__, pqs), map(table.__getitem__, pqs)))


def _pq_keys(table) -> Dict[str, object]:
    """The table keyed by "p,q" spellings, unsorted, for a map that only the
    encoder reads: it sorts keys itself."""
    return dict(zip(map(_PQ_KEYS.__getitem__, table), table.values()))


def cmd_compute(args) -> int:
    bundle = load_bundle(args.path)
    report = stringy_hodge_table(bundle.descriptor, args.max_degree)
    h_st = _pq_map(report.h_st_table())
    doc: Dict[str, object] = {
        "label": report.label,
        "dim": report.n,
        "expansion_bound": report.bound,
        "expansion_point": EXPANSION_NOTE,
        "e_function": {
            "numerator": _pq_keys(report.e_function.numerator.terms),
            "denominator_factors": list(report.e_function.denominator.factors),
        },
        "polynomial": _pq_keys(report.polynomial.terms) if report.polynomial else None,
        "b_coefficients": _pq_keys(report.coefficients),
        "stringy_hodge_numbers": h_st,
        "checks": {
            "symmetry": check_symmetry(bundle.descriptor),
            "poincare_duality": check_pd_identity(bundle.descriptor),
            "polynomial_consequences": check_polynomial_consequences(bundle.descriptor),
        },
        "negative_at": [key for key, h in h_st.items() if h < 0],
    }
    if bundle.snc is not None:
        top = bundle.snc.max_level()
        doc["snc_h0_weight_dims"] = {
            str(l): weight_graded_dims(bundle.snc, 0, l, 0, 0) for l in range(top)
        }

    def render(doc):
        yield f"== {doc['label'] or args.path} (dim {doc['dim']}) =="
        yield f"E_st = {report.e_function}"
        if report.polynomial is not None:
            yield f"polynomial: {report.polynomial}"
        else:
            yield "not a polynomial; coefficients below are expansion coefficients"
        yield f"({doc['expansion_point']}, bound {doc['expansion_bound']})"
        yield "stringy Hodge numbers h^{p,q}_st:"
        for key, value in doc["stringy_hodge_numbers"].items():
            yield f"  h^{{{key}}}_st = {value}"
        checks = doc["checks"]
        yield f"u<->v symmetry: {checks['symmetry']}"
        pd = checks["poincare_duality"]
        yield f"Poincare duality identity: {'inconclusive' if pd is None else pd}"
        if "snc_h0_weight_dims" in doc:
            dims = ", ".join(
                f"Gr^W_0 H^{l}(D) = {v}" for l, v in doc["snc_h0_weight_dims"].items()
            )
            yield f"SNC dual-complex weights (H^0 row): {dims}"
        if doc["negative_at"]:
            yield f"NEGATIVE stringy Hodge numbers at: {doc['negative_at']}"

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
        "verdicts": _pq_keys(report.verdicts),
        "values": _pq_keys(report.values),
        "provenance": _pq_keys(report.provenance),
        "negative_details": _pq_map(report.negative_details),
        "threefold_inequality": report.threefold_inequality,
        "all_nonnegative": report.all_nonnegative(),
    }

    def render(doc):
        yield f"== {doc['label'] or args.path} (dim {doc['dim']}) =="
        yield f"polynomial stringy E-function: {doc['polynomial']}"
        if doc["all_nonnegative"]:
            yield f"all stringy Hodge numbers with p+q <= {doc['expansion_bound']} are nonnegative"
        else:
            for key, detail in doc["negative_details"].items():
                yield (
                    f"NEGATIVE h^{{{key}}}_st = {detail['h_st']} "
                    f"(a_pq = {detail['a_pq']}, "
                    f"discrepancy-1 count = {detail['discrepancy_one_count']})"
                )
        if doc["threefold_inequality"] is not None:
            yield f"threefold h^{{2,2}}_st >= h^{{1,1}}_st: {doc['threefold_inequality']}"

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
        yield f"== {doc['label'] or args.path}: local defects =="
        for row in doc["fibers"]:
            status = "ok" if row["bound_satisfied"] else "VIOLATED (not geometrically realizable)"
            yield (
                f"  {row['point']}: sigma = {row['local_defect']}, "
                f"discrepancy-1 bound {row['discrepancy_one_count']}: {status}"
            )

    _emit(doc, args.format, render)
    return 0


def cmd_compare(args) -> int:
    d1 = load_bundle(args.path_a).descriptor
    d2 = load_bundle(args.path_b).descriptor
    diff = first_coefficient_difference(d1, d2)
    doc = {
        "labels": [d1.label, d2.label],
        "equal": diff is None,
        "first_difference": (
            None
            if diff is None
            else {"p": diff[0], "q": diff[1], "b_a": diff[2], "b_b": diff[3]}
        ),
    }

    def render(doc):
        if doc["equal"]:
            yield "stringy E-functions are EQUAL (exact rational-function identity)"
        else:
            d = doc["first_difference"]
            yield (
                "stringy E-functions DIFFER: first mismatch at "
                f"u^{d['p']} v^{d['q']} ({d['b_a']} vs {d['b_b']})"
            )

    _emit(doc, args.format, render)
    return 0 if diff is None else 1


_COMMANDS = {
    "compute": (("path",), True, "full stringy report for one descriptor"),
    "check": (("path",), True, "nonnegativity verdicts (exit 1 on a negative)"),
    "defect": (("path",), False, "per-point local defect table"),
    "compare": (("path_a", "path_b"), False,
                "exact equality of two stringy E-functions, and their first mismatch"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringy",
        description="Exact stringy E-function and stringy Hodge number computations "
        "from JSON log-resolution descriptors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (paths, bounded, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in paths:
            p.add_argument(name)
        if bounded:
            p.add_argument("--max-degree", type=int, default=None,
                           help="expansion bound on p+q (default 2*dim)")
        p.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def _plain(argv):
    """The Namespace the parser builds from a plain argv, or None for any other argv."""
    if not (argv and {str}.issuperset(map(type, argv)) and argv[0] in _COMMANDS):
        return None
    paths, bounded, _ = _COMMANDS[argv[0]]
    options = {"format": "text", **({"max_degree": None} if bounded else {})}
    values, tokens = [], iter(argv[1:])
    for token in tokens:
        if token == "--format" and (value := next(tokens, "")) in ("text", "machine"):
            options["format"] = value
        elif (token == "--max-degree" and bounded and (value := next(tokens, "")).isascii()
              and value.isdigit() and len(value) <= 640):  # no int() digit limit is below 640
            options["max_degree"] = int(value)
        elif token[:1] in ("", "-"):
            return None
        else:
            values.append(token)
    if len(values) != len(paths):
        return None
    return argparse.Namespace(command=argv[0], **dict(zip(paths, values)), **options)


_PARSER = None  # built by the first main() call, reused by later in-process calls


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain(argv) or _PARSER.parse_args(argv)
    try:
        # looked up per call, so that a rebound cmd_* takes effect with the cached parser
        return globals()[f"cmd_{args.command}"](args)
    except (DiamondError, DescriptorError, SncDataError, DescriptorFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect of the library, which exit 1 would read as a verdict
        from traceback import format_exception_only  # kept off the import time of every call

        detail = exc if isinstance(exc, CrossCheckError) else "".join(format_exception_only(exc))
        print(f"internal error: {detail}".strip().replace("\n", " "), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
