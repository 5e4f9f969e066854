"""Output checks for benchmark calls.

Two kinds of check run on every output:

* Independent checks compare with values that follow from how the inputs
  were generated (families.Call.expect) or that the README states for the
  corpus, never with values computed by the package.
* Reference checks compare a digest of the representation-independent part
  of the output with the digest recorded in reference.json at the seed
  commit.  `e_function.numerator` and `e_function.denominator_factors` are
  left out: they depend on how E_st is represented, not on its value.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DIGEST_HEX = 8  # a changed output keeps its digest with probability 2**-32


def canonical(kind: str, code: int, out: object) -> str:
    """Canonical text of a call result; `out` is CLI stdout or a library result."""
    if kind in ("compute", "check", "defect", "compare"):
        doc = json.loads(out) if out else None
        if kind == "compute" and doc is not None:
            doc.pop("e_function", None)
    elif kind == "purity":
        doc = {**out, "rows": {",".join(map(str, key)): row for key, row in out["rows"].items()}}
    else:
        doc = out
    return json.dumps({"exit": code, "out": doc}, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def load_reference() -> Dict[str, object]:
    """reference.json, with the digests of the small pool entries merged into "calls".

    The file keeps those compact: "small" holds one string per pool entry,
    the compute digest followed by the check digest.
    """
    doc = json.loads(REFERENCE.read_text())
    calls = doc["calls"]
    for index, pair in enumerate(doc.pop("small")):
        calls[f"small/{index}/compute"] = pair[:DIGEST_HEX]
        calls[f"small/{index}/check"] = pair[DIGEST_HEX:]
    return doc


def independent(expect: Dict[str, object], code: int, text: str) -> List[str]:
    """Problems found by the independent checks of one call."""
    problems = []
    doc = json.loads(text)["out"]
    if expect and doc is None:
        return [f"no output (exit {code})"]
    if "equal" in expect:
        want_code = 0 if expect["equal"] else 1
        if code != want_code or doc["equal"] is not expect["equal"]:
            problems.append(f"compare gave exit {code}, equal={doc['equal']}")
    if "first_difference" in expect:
        p, q, delta = expect["first_difference"]
        fd = doc["first_difference"] or {}
        if (fd.get("p"), fd.get("q")) != (p, q) or fd["b_b"] - fd["b_a"] != delta:
            problems.append(f"first_difference {fd}, expected ({p},{q}) with b_b - b_a = {delta}")
    if "h_p0" in expect:
        h = doc["stringy_hodge_numbers"]
        for p, value in expect["h_p0"].items():
            if h.get(f"{p},0", 0) != value:
                problems.append(f"h^{{{p},0}}_st = {h.get(f'{p},0', 0)}, h^{{{p},0}}(Y) = {value}")
    for key, value in expect.get("h_st", {}).items():
        if doc["stringy_hodge_numbers"].get(key) != value:
            problems.append(f"h^{{{key}}}_st = {doc['stringy_hodge_numbers'].get(key)}, "
                            f"expected {value}")
    if "snc_h0_weight_dims" in expect:
        if doc.get("snc_h0_weight_dims") != expect["snc_h0_weight_dims"]:
            problems.append(f"H^0 weight dims {doc.get('snc_h0_weight_dims')}, "
                            f"expected {expect['snc_h0_weight_dims']}")
    if "failing_spots" in expect:
        row = doc["rows"].get("2,1,1", {})
        if row.get("exact") is not False or row.get("failing_spots") != expect["failing_spots"]:
            problems.append(f"(2,1,1) row {row}, expected failing spots "
                            f"{expect['failing_spots']}")
    if "value" in expect and doc != expect["value"]:
        problems.append(f"value {doc}, expected {expect['value']}")
    return problems


def check(call, code: int, out: object, reference: Optional[Dict[str, str]]) -> List[str]:
    """Problems with one call's result; the reference is skipped when None."""
    text = canonical(call.kind, code, out)
    problems = independent(call.expect, code, text)
    if reference is not None:
        want = reference.get(call.ref)
        if want is None:
            problems.append("no reference digest recorded")
        elif digest(text) != want:
            problems.append(f"output differs from the reference ({digest(text)} != {want})")
    return problems
