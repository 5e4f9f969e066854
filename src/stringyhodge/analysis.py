"""Local defect of threefold singularities, diamond inequalities, products,
and nonnegativity reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from . import hodge
from .hodge import HodgeDiamond, _ValidOnce
from .stringy import (
    DescriptorError,
    ResolutionDescriptor,
    a_pq,
    closed_form_h,
    stringy_hodge_table,
    _require_terminal,
)


@dataclass(frozen=True)
class FiberComponent:
    comp_id: str
    diamond: HodgeDiamond
    discrepancy: int


@dataclass(frozen=True)
class ExceptionalFiberDescriptor(_ValidOnce):
    """Exceptional fiber over one isolated threefold singularity.

    Components are the surfaces of the fiber; pairwise_counts maps each sorted
    id pair to the number of connected components of its intersection curve.
    The fields never change (pairwise_counts is a read-only mapping), so a
    successful validation is kept.
    """

    point: str
    components: Tuple[FiberComponent, ...]
    pairwise_counts: Mapping[Tuple[str, str], int] = field(default_factory=dict)

    _error = DescriptorError

    def __post_init__(self):
        object.__setattr__(self, "components", self._read("components", tuple))
        counts = MappingProxyType(self._read("pairwise_counts", dict))
        object.__setattr__(self, "pairwise_counts", counts)

    def validate(self) -> List[str]:
        for c in self.components:  # the rules below read a component's fields and sort ids
            if not (type(c) is FiberComponent and type(c.comp_id) is str):
                return self._kept([f"component {c!r} is not a FiberComponent with a str id"])
        problems = []
        ids = [c.comp_id for c in self.components]
        if len(set(ids)) != len(ids):
            problems.append("duplicate fiber component ids")
        for c in self.components:
            if isinstance(c.diamond, HodgeDiamond) and c.diamond.dim != 2:
                problems.append(
                    f"component {c.comp_id!r} must be a surface, got dim {c.diamond.dim}"
                )
            if type(c.discrepancy) is not int:
                problems.append(
                    f"component {c.comp_id!r} has non-integer discrepancy {c.discrepancy!r}")
            elif c.discrepancy < 0:
                problems.append(f"component {c.comp_id!r} has negative discrepancy")
            problems.extend(
                f"component {c.comp_id!r}: {msg}" for msg in hodge._verdict(c.diamond)
            )
        for pair, count in self.pairwise_counts.items():
            if type(pair) is not tuple or len(pair) != 2 or pair[0] == pair[1]:
                problems.append(f"malformed intersection pair {pair!r}")
            elif not set(pair) <= set(ids):
                problems.append(f"intersection pair {pair!r} names unknown components")
            elif tuple(sorted(pair)) != pair:
                problems.append(f"intersection pair {pair!r} is not sorted")
            if type(count) is not int:
                problems.append(f"non-integer intersection count {count!r} for pair {pair!r}")
            elif count < 0:
                problems.append(f"negative intersection count for pair {pair!r}")
        return self._kept(problems)

    def discrepancy_one_count(self) -> int:
        """Number of discrepancy-1 fiber surfaces, each piece of a union counted."""
        return sum(c.diamond.hpq(0, 0) for c in self.components if c.discrepancy == 1)


class CrossCheckError(Exception):
    """Raised when a closed form disagrees with the series expansion.

    The two are computed independently from the same descriptor, so a
    disagreement is a defect of the library, not of the input.
    """


def local_defect(fd: ExceptionalFiberDescriptor) -> int:
    """sigma = h^{1,1}(E(1)) - h^0(E(2)) - h^0(E(1)) for the fiber.

    Zero means the singularity is analytically Q-factorial.
    """
    fd.check_valid()
    h11 = sum(c.diamond.hpq(1, 1) for c in fd.components)
    h0_1 = sum(c.diamond.hpq(0, 0) for c in fd.components)
    h0_2 = sum(fd.pairwise_counts.values())
    return h11 - h0_2 - h0_1


def defect_bound_check(fd: ExceptionalFiberDescriptor) -> bool:
    """Whether sigma is at most the number of discrepancy-1 components.

    False means the fiber data cannot come from a terminal threefold
    singularity; the bound is a theorem for genuine geometric input.
    """
    return local_defect(fd) <= fd.discrepancy_one_count()


def threefold_h22_minus_h11(d: ResolutionDescriptor) -> int:
    """h^{2,2}_st - h^{1,1}_st of a terminal threefold: the difference of the
    two closed forms.

    For h^{2,2}(Y) = h^{1,1}(Y) it is -h^{1,1}(D(1)) + h^0(D(2)) + h^0(D(1))
    + the discrepancy-1 component count; nonnegative for geometric input,
    and zero whenever the stringy E-function is a polynomial.
    """
    _require_terminal(d, 3, "threefold")
    return closed_form_h(d, 2, 2) - closed_form_h(d, 1, 1)


def product_stringy(d: ResolutionDescriptor, z: HodgeDiamond) -> ResolutionDescriptor:
    """Descriptor of X x Z for a smooth projective Z.

    Components and discrepancies are unchanged; every stratum is multiplied
    by Z, one Kunneth product per distinct diamond, which the strata that
    share it share too.  The stringy E-function picks up the factor E(Z).
    """
    problems = hodge._verdict(z, True)
    if problems:
        raise DescriptorError("product factor invalid: " + "; ".join(problems))
    d.check_valid()
    times_z = {s: hodge.kunneth(s, z) for s in set(d.strata.values())}
    return ResolutionDescriptor(
        n=d.n + z.dim,
        components=d.components,
        strata={J: times_z[s] for J, s in d.strata.items()},
        label=f"{d.label} x (dim-{z.dim} factor)" if d.label else "",
    )


@dataclass(frozen=True)
class ConjectureReport:
    """Nonnegativity verdicts for the stringy Hodge numbers of one descriptor."""

    label: str
    n: int
    bound: int
    polynomial: bool
    verdicts: Mapping[Tuple[int, int], str]  # "nonnegative" | "negative"
    values: Mapping[Tuple[int, int], int]  # h^{p,q}_st from the expansion
    provenance: Mapping[Tuple[int, int], str]  # "expansion" | "closed-form"
    negative_details: Mapping[Tuple[int, int], Dict[str, int]]
    threefold_inequality: Optional[bool]  # h^{2,2}_st >= h^{1,1}_st, n = 3 only

    def all_nonnegative(self) -> bool:
        return all(v == "nonnegative" for v in self.verdicts.values())


def conjecture_report(
    d: ResolutionDescriptor, bound: Optional[int] = None
) -> ConjectureReport:
    """Check nonnegativity of every h^{p,q}_st with p + q <= bound.

    Values come from the origin expansion; for q <= 2 on terminal input the
    closed forms are cross-checked against them, and CrossCheckError is
    raised on a disagreement.  Each negative entry is reported with a_{p,q}
    and the number of discrepancy-1 divisors; the two need not add up to it.
    """
    report = stringy_hodge_table(d, bound)
    h_st = report.h_st_table()
    terminal = all(a >= 1 for _, a in d.components)
    verdicts: Dict[Tuple[int, int], str] = {}
    values: Dict[Tuple[int, int], int] = {}
    provenance: Dict[Tuple[int, int], str] = {}
    negative_details: Dict[Tuple[int, int], Dict[str, int]] = {}
    for p in range(report.bound + 1):
        for q in range(report.bound + 1 - p):
            value = values[(p, q)] = h_st.get((p, q), 0)
            verdicts[(p, q)] = "nonnegative" if value >= 0 else "negative"
            if q <= 2 and (q == 0 or terminal):
                closed = closed_form_h(d, p, q)
                if closed != value:
                    raise CrossCheckError(
                        f"closed form gives h^{{{p},{q}}}_st = {closed}, "
                        f"series expansion gives {value}"
                    )
                provenance[(p, q)] = "closed-form"
            else:
                provenance[(p, q)] = "expansion"
            if value < 0:
                negative_details[(p, q)] = {
                    "h_st": value,
                    "a_pq": a_pq(d, p, q),
                    "discrepancy_one_count": d.discrepancy_one_sum(2),
                }
    ineq = None
    if d.n == 3 and terminal:
        ineq = threefold_h22_minus_h11(d) >= 0
    return ConjectureReport(
        label=d.label,
        n=d.n,
        bound=report.bound,
        polynomial=report.polynomial is not None,
        verdicts=verdicts,
        values=values,
        provenance=provenance,
        negative_details=negative_details,
        threefold_inequality=ineq,
    )
