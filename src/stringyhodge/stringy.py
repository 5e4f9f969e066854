"""Assembly of the stringy E-function from log-resolution combinatorics.

A resolution descriptor lists the exceptional components with their
discrepancies and the Hodge diamonds of all nonempty closed strata D_J
(the empty subset stands for the resolved variety itself).  Everything in
this module is coefficient arithmetic over those diamonds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from . import hodge
from .hodge import HodgeDiamond, _ValidOnce
from .polyalg import (
    BivariatePoly,
    DenominatorSpec,
    StringyFunction,
    _over,
    _spread,
    _times,
    exact_divide_test,
)

Subset = Tuple[str, ...]


class DescriptorError(ValueError):
    """Raised when a resolution descriptor violates its invariants."""


@dataclass(frozen=True)
class ResolutionDescriptor(_ValidOnce):
    """Combinatorial data of a log-resolution.

    strata maps sorted id-tuples J to the diamond of the closed stratum D_J;
    the empty tuple is the ambient resolved variety.  A missing key means the
    stratum is empty.  A single component entry may stand for a disjoint
    union of divisors sharing one discrepancy: its stratum diamond is then
    the entrywise sum and h^{0,0} counts the pieces.

    The fields never change after construction (strata is a read-only
    mapping), so derived data is computed once per instance and kept: the
    outcome of a successful validation, the first stratum that fails
    Poincare duality, the level sums and E_st.
    """

    n: int
    components: Tuple[Tuple[str, int], ...]
    strata: Mapping[Subset, HodgeDiamond]
    label: str = ""

    _error = DescriptorError

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(
            self,
            "strata",
            MappingProxyType({tuple(k): v for k, v in self.strata.items()}),
        )

    def validate(self) -> List[str]:
        problems = []
        ids = [cid for cid, _ in self.components]
        if len(set(ids)) != len(ids):
            problems.append("duplicate component ids")
        for cid, a in self.components:
            if a < 0:
                problems.append(f"component {cid!r} has negative discrepancy {a}")
        if () not in self.strata:
            problems.append("missing Y stratum (empty subset)")
        known = set(ids)
        pd_failure = None
        for subset, diamond in self.strata.items():
            if tuple(sorted(subset)) != subset:
                problems.append(f"stratum key {subset!r} is not sorted")
            if len(set(subset)) != len(subset):
                problems.append(f"stratum key {subset!r} repeats a component")
            unknown = set(subset) - known
            if unknown:
                problems.append(f"stratum {subset!r} names unknown components {sorted(unknown)}")
            expected = self.n - len(subset)
            if diamond.dim != expected:
                problems.append(
                    f"stratum {subset!r} has dimension {diamond.dim}, expected {expected}"
                )
            found = hodge.validate(diamond)
            problems.extend(f"stratum {subset!r}: {msg}" for msg in found)
            if pd_failure is None and (found or hodge._duality_problems(diamond)):
                pd_failure = subset
            if subset:
                for sub in combinations(subset, len(subset) - 1):
                    if sub not in self.strata:
                        problems.append(
                            f"downward closure broken: {subset!r} present but {sub!r} missing"
                        )
        object.__setattr__(self, "_pd_failure", pd_failure)
        return self._kept(problems)

    @cached_property
    def _levels(self) -> Dict[int, HodgeDiamond]:
        out: Dict[int, HodgeDiamond] = {}
        for J, d in self.strata.items():
            out[len(J)] = out[len(J)] + d if len(J) in out else d
        return out

    def level(self, k: int) -> Optional[HodgeDiamond]:
        """Summed diamond of D(k), the union of all |J| = k strata.

        D(0) is the ambient variety.  Returns None when D(k) is empty.
        """
        return self._levels.get(k)

    def strata_pd_consistent(self) -> bool:
        """Whether every stratum passes `hodge.validate(d, smooth_projective=True)`.

        Reads the first failing stratum (or None) that validate() keeps from
        its one loop over the strata, validating first if nothing did yet.
        """
        if "_pd_failure" not in vars(self):
            self.validate()
        return self._pd_failure is None

    def discrepancy_one_sum(self, p: int) -> int:
        """Sum of h^{p-2,0}(D_j) over the discrepancy-1 components D_j."""
        return sum(
            self.strata[(cid,)].hpq(p - 2, 0)
            for cid, a in self.components
            if a == 1 and (cid,) in self.strata
        )

    @cached_property
    def _e_st(self) -> StringyFunction:
        # E_st without validation: the identity checks use it so that
        # negative controls with broken diamonds still evaluate
        return _assemble(self)

    @cached_property
    def _e_st_polynomial(self) -> Optional[BivariatePoly]:
        # the exact quotient of _e_st, or None when it is not a polynomial;
        # shared by the Hodge table and the polynomial consequences
        return exact_divide_test(self._e_st)


def _assemble(d: ResolutionDescriptor) -> StringyFunction:
    """Sum E(D_J) * prod_{j in J} (w - w^m_j)/(w^m_j - 1), m_j = a_j + 1, by signature.

    The factor of a stratum depends only on its signature, the sorted m_j
    over J, so the raw h^{p,q} of the strata sharing a signature are summed
    into one table first, and `hodge.e_polynomial`, the one home of the sign
    (-1)^{p+q}, turns each group's table into its E-polynomial once.  The
    sign reads only (p, q), so a group may mix dimensions, as unvalidated
    controls with a = -1 do.  The common denominator holds each w^m - 1 as
    often as the most demanding signature needs it and is expanded once; a
    group's factor is that expansion divided exactly by w^m - 1 (the series
    recurrence of polyalg, cut at the quotient's length) and multiplied by
    w - w^m for each m of its signature.  Components with a < 1 give no
    denominator factor; a = 0 makes the numerator factor w - w vanish, so
    its strata are skipped.
    """
    discrepancies = dict(d.components)
    groups: Dict[Tuple[int, ...], HodgeDiamond] = {}
    for subset, diamond in d.strata.items():
        a = [discrepancies[cid] for cid in subset]
        if 0 in a:
            continue
        signature = tuple(sorted(x + 1 for x in a if x >= 1))
        if signature not in groups:
            groups[signature] = HodgeDiamond(diamond.dim)
        h_sum = groups[signature].h
        for pq, c in diamond.h.items():
            h_sum[pq] = h_sum.get(pq, 0) + c
    common = DenominatorSpec()
    for signature in groups:
        common = common.union(DenominatorSpec(signature))
    full = common.expand()
    rows: Dict[Tuple[int, int], List[int]] = {}  # (p, q) -> coefficients of u^{p+k} v^{q+k}
    zero = [0] * len(full)
    for signature, h_sum in groups.items():
        # full / prod (w^m - 1) * prod (w - w^m), where w - w^m = -w (w^{m-1} - 1)
        factor = _over(full, signature, len(full) - sum(signature))
        for m in signature:
            factor = _times(factor, m - 1)
        sign = (-1) ** len(signature)
        factor = [0] * len(signature) + [sign * x for x in factor]
        for pq, c in hodge.e_polynomial(h_sum, check=False).terms.items():
            rows[pq] = [x + c * f for x, f in zip(rows.get(pq, zero), factor)]
    return StringyFunction(_spread(rows), common)


def stringy_e(d: ResolutionDescriptor) -> StringyFunction:
    """The stringy E-function of the descriptor, over its factored denominator.

    Sum over subsets J of E(D_J) * prod_{j in J} (w - w^{a_j+1})/(w^{a_j+1}-1)
    with w = uv.  Subsets containing a discrepancy-0 component contribute the
    zero factor w - w and are skipped.  Assembled once per descriptor.
    """
    d.check_valid()
    return d._e_st


@dataclass(frozen=True)
class StringyReport:
    """E_st of one descriptor and its expansion at the origin; no identity checks."""

    label: str
    n: int
    e_function: StringyFunction
    bound: int
    polynomial: Optional[BivariatePoly]
    coefficients: Mapping[Tuple[int, int], int]  # b_{p,q}, p+q <= bound

    def h_st(self, p: int, q: int) -> int:
        return (-1) ** (p + q) * self.coefficients.get((p, q), 0)

    def h_st_table(self) -> Dict[Tuple[int, int], int]:
        return {pq: self.h_st(*pq) for pq in self.coefficients}

    @property
    def negative(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(pq for pq, h in self.h_st_table().items() if h < 0))


def check_symmetry(d: ResolutionDescriptor) -> bool:
    """E_st(u, v) = E_st(v, u): the numerator is u <-> v invariant."""
    num = d._e_st.numerator
    return num == num.swap_vars()


def check_pd_identity(d: ResolutionDescriptor) -> Optional[bool]:
    """E_st(u, v) = (uv)^n E_st(1/u, 1/v), checked exactly.

    Each denominator factor transforms as w^{-m} - 1 = -w^{-m}(w^m - 1), so
    the identity reduces to a Laurent-polynomial comparison of numerators.
    Returns None (inconclusive) when a stratum fails per-stratum duality:
    the identity presupposes genuine geometric input.
    """
    if not d.strata_pd_consistent():
        return None
    f = d._e_st
    sign = (-1) ** len(f.denominator.factors)
    shift = d.n + sum(f.denominator.factors)
    terms = f.numerator.terms
    return terms == {(shift - p, shift - q): sign * c for (p, q), c in terms.items()}


def stringy_hodge_table(d: ResolutionDescriptor, bound: Optional[int] = None) -> StringyReport:
    """Stringy Hodge numbers h^{p,q}_st = (-1)^{p+q} b_{p,q} up to p+q <= bound.

    The b_{p,q} come from the series expansion at the origin; when the
    E-function is a polynomial the expansion terminates and agrees with it.
    Callers that report the identity checks run them themselves.
    """
    f = stringy_e(d)
    if bound is None:
        bound = 2 * d.n
    if bound < 0:
        raise ValueError("expansion bound must be nonnegative")
    return StringyReport(
        label=d.label,
        n=d.n,
        e_function=f,
        bound=bound,
        polynomial=d._e_st_polynomial,
        coefficients=f.series_coefficients(bound),
    )


def check_polynomial_consequences(d: ResolutionDescriptor) -> Dict[str, object]:
    """Structural facts forced when E_st is a polynomial.

    Degree exactly 2n, h^{p,q}_st = h^{n-p,n-q}_st, and vanishing outside the
    n x n diamond.  Inapplicable for non-polynomial E-functions.
    """
    d.check_valid()
    poly = d._e_st_polynomial
    if poly is None:
        return {"applicable": False}
    n = d.n
    failures = []
    if poly.total_degree() != 2 * n:
        failures.append(f"degree {poly.total_degree()} != {2 * n}")
    for (p, q), c in poly.terms.items():
        if p > n or q > n or p < 0 or q < 0:
            failures.append(f"nonzero coefficient outside the diamond at ({p},{q})")
        if c != poly.coeff(n - p, n - q):
            failures.append(f"duality broken between ({p},{q}) and ({n - p},{n - q})")
    return {"applicable": True, "passed": not failures, "failures": sorted(set(failures))}


def a_pq(d: ResolutionDescriptor, p: int, q: int) -> int:
    """Discrepancy-free part: alternating sum of h^{p-k,q-k}(D(k)), D(0) = Y."""
    d.check_valid()
    total = 0
    for k in range(0, min(p, q, len(d.components)) + 1):
        lvl = d.level(k)
        if lvl is not None:
            total += (-1) ** k * lvl.hpq(p - k, q - k)
    return total


def _require_terminal(d: ResolutionDescriptor, n: Optional[int] = None, kind: str = "") -> None:
    """Validate d and require every discrepancy >= 1 and, if n is given, dimension n."""
    d.check_valid()
    if n is not None and d.n != n:
        raise DescriptorError(f"{kind} formula requires n = {n}, got n = {d.n}")
    bad = [cid for cid, a in d.components if a < 1]
    if bad:
        raise DescriptorError(
            f"operation requires all discrepancies >= 1; components {bad} have a = 0"
        )


def closed_form_h(d: ResolutionDescriptor, p: int, q: int) -> int:
    """Closed forms for h^{p,q}_st with q <= 2 (terminal input for q >= 1).

    One rule: a_{p,q} plus, for q = 2, the sum of h^{p-2,0}(D_j) over the
    discrepancy-1 components.  Spelled out, q = 0 gives h^{p,0}(Y), q = 1
    gives h^{p,1}(Y) - h^{p-1,0}(D(1)) and q = 2 gives
    h^{p,2}(Y) - h^{p-1,1}(D(1)) + h^{p-2,0}(D(2)) + that sum.
    """
    d.check_valid()
    if q not in (0, 1, 2):
        raise ValueError("closed forms are only available for q in {0, 1, 2}")
    if q:
        _require_terminal(d)
    return a_pq(d, p, q) + (d.discrepancy_one_sum(p) if q == 2 else 0)


def h22st_fourfold(d: ResolutionDescriptor) -> int:
    """h^{2,2}_st of a terminal fourfold: the p = q = 2 closed form,
    a_{2,2} plus the discrepancy-1 count."""
    _require_terminal(d, 4, "fourfold")
    return closed_form_h(d, 2, 2)


def crepant_compare(d1: ResolutionDescriptor, d2: ResolutionDescriptor) -> bool:
    """Whether two descriptors yield the same stringy E-function, exactly."""
    if d1.n != d2.n:
        raise DescriptorError(f"dimension mismatch: {d1.n} vs {d2.n}")
    return stringy_e(d1).equals(stringy_e(d2))


def _compare_bound(d1: ResolutionDescriptor, d2: ResolutionDescriptor,
                   bound: Optional[int]) -> int:
    """The bound on p+q that first_coefficient_difference searches: 2*max(n)+2 by default."""
    return 2 * max(d1.n, d2.n) + 2 if bound is None else bound


def first_coefficient_difference(
    d1: ResolutionDescriptor, d2: ResolutionDescriptor, bound: Optional[int] = None
) -> Optional[Tuple[int, int, int, int]]:
    """First (p,q) in total-degree order where the expansions differ.

    Returns (p, q, b1, b2) or None when all coefficients up to the bound agree.
    """
    bound = _compare_bound(d1, d2, bound)
    if bound < 0:
        raise ValueError("expansion bound must be nonnegative")
    c1 = stringy_e(d1).series_coefficients(bound)
    c2 = stringy_e(d2).series_coefficients(bound)
    keys = sorted(set(c1) | set(c2), key=lambda t: (t[0] + t[1], t))
    for key in keys:
        if c1.get(key, 0) != c2.get(key, 0):
            return (key[0], key[1], c1.get(key, 0), c2.get(key, 0))
    return None
