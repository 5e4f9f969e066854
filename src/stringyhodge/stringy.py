"""Assembly of the stringy E-function from log-resolution combinatorics.

A resolution descriptor lists the exceptional components with their
discrepancies and the Hodge diamonds of all nonempty closed strata D_J (the
empty subset is the resolved variety).  Everything here is coefficient
arithmetic over those diamonds, summed once by signature for every reader.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, starmap
from operator import lt
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from . import hodge
from .hodge import HodgeDiamond, _ValidOnce
from .polyalg import (
    BivariatePoly,
    DenominatorSpec,
    StringyFunction,
    _binomial_sum,
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

    The fields never change after construction (strata is a read-only copy,
    its keys as written, so a key "E" is reported by validate(), not read as
    ("E",)), so derived data is computed once per instance and kept: the
    outcome of a successful validation, the first stratum that fails
    Poincare duality, the signature sums, the a_{p,q} and E_st.
    """

    n: int
    components: Tuple[Tuple[str, int], ...]
    strata: Mapping[Subset, HodgeDiamond]
    label: str = ""

    _error = DescriptorError

    def __post_init__(self):
        object.__setattr__(self, "components", self._read("components", tuple))
        object.__setattr__(self, "strata", MappingProxyType(self._read("strata", dict)))

    def validate(self) -> List[str]:
        """Every violated invariant, stratum by stratum in strata order.

        A diamond keeps its own verdict, so one that the loader gives to all
        strata that spell it alike is scanned once, and its messages are
        repeated for each stratum that holds it.
        """
        if type(self.n) is not int:  # every stratum's dimension is compared with n
            return self._kept([f"dimension n = {self.n!r} is not an integer"])
        for comp in self.components:  # the rules below unpack a pair and sort ids in keys
            if not (type(comp) is tuple and len(comp) == 2 and type(comp[0]) is str):
                return self._kept([f"component {comp!r} is not a pair (str id, discrepancy)"])
        problems = []
        ids = [cid for cid, _ in self.components]
        if len(set(ids)) != len(ids):
            problems.append("duplicate component ids")
        for cid, a in self.components:
            if type(a) is not int:
                problems.append(f"component {cid!r} has non-integer discrepancy {a!r}")
            elif a < 0:
                problems.append(f"component {cid!r} has negative discrepancy {a}")
        if () not in self.strata:
            problems.append("missing Y stratum (empty subset)")
        known = set(ids)
        keys = self.strata.keys()
        # Valid keys pass these tests in C; the rules on each key below run only
        # when one fails.  Order is tested on 2-id keys alone: J[:-1] and J[1:]
        # are facets of J, so once every facet of a key is a key, induction on
        # |J| makes every key strictly increasing (sorted, no id repeated).
        per_key = not ({tuple}.issuperset(map(type, keys))
                       and known.issuperset(chain.from_iterable(keys))
                       and keys >= set(chain.from_iterable(
                           combinations(J, len(J) - 1) for J in filter(None, keys)))
                       and all(starmap(lt, [J for J in keys if len(J) == 2])))
        for subset, diamond in self.strata.items():
            if per_key:  # name what is wrong with this key
                if type(subset) is not tuple:  # the other rules read the key as a tuple
                    problems.append(f"stratum key {subset!r} is not a tuple")
                    continue
                if not all(type(cid) is str for cid in subset):  # they also sort its ids
                    return self._kept([f"stratum key {subset!r} names an id that is not a string"])
                if tuple(sorted(subset)) != subset:
                    problems.append(f"stratum key {subset!r} is not sorted")
                if len(set(subset)) != len(subset):
                    problems.append(f"stratum key {subset!r} repeats a component")
                unknown = set(subset) - known
                if unknown:
                    problems.append(
                        f"stratum {subset!r} names unknown components {sorted(unknown)}"
                    )
            expected = self.n - len(subset)
            if isinstance(diamond, HodgeDiamond) and diamond.dim != expected:
                problems.append(
                    f"stratum {subset!r} has dimension {diamond.dim}, expected {expected}"
                )
            found = hodge._verdict(diamond)
            if found:
                problems.extend(f"stratum {subset!r}: {msg}" for msg in found)
            if per_key and subset:
                for sub in combinations(subset, len(subset) - 1):
                    if sub not in self.strata:
                        problems.append(
                            f"downward closure broken: {subset!r} present but {sub!r} missing"
                        )
        return self._kept(problems)

    @cached_property
    def _groups(self) -> Dict[Tuple[int, ...], Dict[Tuple[int, int], int]]:
        # raw h^{p,q} of the strata summed by signature, the sorted a_j + 1 over J (m <= 1 kept)
        m_of = {cid: a + 1 for cid, a in self.components}
        groups: Dict[Tuple[int, ...], Dict[Tuple[int, int], int]] = {}
        for subset, diamond in self.strata.items():
            h_sum = groups.setdefault(tuple(sorted(map(m_of.__getitem__, subset))), {})
            for pq, c in diamond.h.items():
                h_sum[pq] = h_sum.get(pq, 0) + c
        return groups

    @cached_property
    def _a_table(self) -> Dict[Tuple[int, int], int]:
        # every a_{p,q} at once: a group with |sig| = k adds (-1)^k h^{p-k,q-k}
        table: Dict[Tuple[int, int], int] = Counter()
        for signature, h_sum in self._groups.items():
            k = len(signature)
            table.update({(p + k, q + k): -c if k % 2 else c for (p, q), c in h_sum.items()})
        return table

    def level(self, k: int) -> Optional[HodgeDiamond]:
        """Summed diamond of D(k), the union of all |J| = k strata: the `_groups`
        tables of length-k signatures, added into a fresh table.

        D(0) is the ambient variety.  Returns None when D(k) is empty.
        """
        self.check_valid()
        tables = [h_sum for signature, h_sum in self._groups.items() if len(signature) == k]
        table: Dict[Tuple[int, int], int] = Counter()
        for h_sum in tables:
            table.update(h_sum)
        return HodgeDiamond._trusted(self.n - k, dict(table)) if tables else None

    @cached_property
    def _pd_failure(self) -> Optional[Subset]:
        return next((J for J, s in self.strata.items() if hodge._verdict(s, True)), None)

    def strata_pd_consistent(self) -> bool:
        """Whether every stratum passes `hodge.validate(d, smooth_projective=True)`.

        The first failing stratum (or None) is found on the first call, which
        `check_pd_identity` makes, and kept; each diamond keeps the verdicts
        of both flags, so one that validate() scanned adds only duality.
        """
        self.check_valid()
        return self._pd_failure is None

    @cached_property
    def _e_st(self) -> StringyFunction:
        return _assemble(self)

    @cached_property
    def _e_st_polynomial(self) -> Optional[BivariatePoly]:
        # the exact quotient of _e_st, or None when it is not a polynomial;
        # shared by the Hodge table and the polynomial consequences
        return exact_divide_test(self._e_st)


def _assemble(d: ResolutionDescriptor) -> StringyFunction:
    """Sum E(D_J) * prod_{j in J} (w - w^m_j)/(w^m_j - 1), m_j = a_j + 1, by signature.

    The factor of a stratum depends only on its signature, the sorted m_j over
    J, so it reads the raw h^{p,q} of the strata summed by signature
    (`ResolutionDescriptor._groups`) and nothing else.  The common denominator
    holds each w^m - 1 as often as the most demanding signature needs it.  Over
    it, a group's factor is its cofactor times prod (w - w^m) = (-w)^{|sig|}
    prod (w^{m-1} - 1).  A component with a = 0 (m = 1) makes the numerator
    factor w - w vanish, so the groups whose signature holds 1 are skipped; the
    descriptor is valid, so every other m is at least 2.

    `hodge._signed`, the one home of the sign, gives each entry h^{p,q} of a
    group's table the sign (-1)^{p+q+|sig|}: its E-terms times the (-1)^{|sig|}
    of (-w)^{|sig|}.  `polyalg._binomial_sum` forms the sum of the products.
    """
    groups = {signature: h_sum for signature, h_sum in d._groups.items() if 1 not in signature}
    need: Dict[int, int] = {}  # m -> its multiplicity in the common denominator
    for signature in groups:
        for m in set(signature):
            need[m] = max(need.get(m, 0), signature.count(m))
    common = DenominatorSpec(tuple(m for m, k in need.items() for _ in range(k)))
    products = []
    for signature, h_sum in groups.items():
        terms = hodge._signed(h_sum, len(signature))
        exponents = [m for m, k in need.items() for _ in range(k - signature.count(m))]
        exponents += [m - 1 for m in signature]
        products.append((terms, exponents, len(signature)))
    return _binomial_sum(products, common)


def stringy_e(d: ResolutionDescriptor) -> StringyFunction:
    """The stringy E-function of the descriptor, over its factored denominator.

    Sum over subsets J of E(D_J) * prod_{j in J} (w - w^{a_j+1})/(w^{a_j+1}-1)
    with w = uv.  Subsets containing a discrepancy-0 component contribute the
    zero factor w - w and are skipped.  The descriptor is validated first, as
    by every reader of it, and E_st assembled once per descriptor.
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
        return self.h_st_table().get((p, q), 0)

    def h_st_table(self) -> Dict[Tuple[int, int], int]:
        return hodge._signed(self.coefficients)


def check_symmetry(d: ResolutionDescriptor) -> bool:
    """E_st(u, v) = E_st(v, u): the numerator is u <-> v invariant; valid strata
    are conjugation symmetric, so this checks the assembly, not the input."""
    d.check_valid()
    num = d._e_st.numerator
    return num == num.swap_vars()


def check_pd_identity(d: ResolutionDescriptor) -> Optional[bool]:
    """E_st(u, v) = (uv)^n E_st(1/u, 1/v), checked exactly.

    Each denominator factor transforms as w^{-m} - 1 = -w^{-m}(w^m - 1), so
    the identity reduces to a Laurent-polynomial comparison of numerators.
    Returns None (inconclusive) when a stratum fails per-stratum duality:
    the identity presupposes genuine geometric input.
    """
    if not d.strata_pd_consistent():  # validates d first
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
        raise DescriptorError("expansion bound must be nonnegative")
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
    """Discrepancy-free part: alternating sum of h^{p-k,q-k}(D(k)), D(0) = Y (`_a_table`)."""
    d.check_valid()
    return d._a_table.get((p, q), 0)


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

    The k <= q truncation of Batyrev's sum expanded one stratum at a time,
    h^{p,q}_st = sum_J sum_{k >= |J|} g_J(k) h^{p-k,q-k}(D_J), g_J(k) the w^k
    coefficient of prod_{j in J} (w - w^m_j)/(w^m_j - 1), m_j = a_j + 1.  On
    terminal input g_J(|J|) = (-1)^{|J|} gives a_{p,q}, and g(2) = 1 at m = 2
    adds, for q = 2, h^{p-2,0} of the discrepancy-1 components (group (2,)).
    """
    if q not in (0, 1, 2):
        raise ValueError("closed forms are only available for q in {0, 1, 2}")
    if q:
        _require_terminal(d)
    return a_pq(d, p, q) + (d._groups.get((2,), {}).get((p - 2, 0), 0) if q == 2 else 0)


def h22st_fourfold(d: ResolutionDescriptor) -> int:
    """h^{2,2}_st of a terminal fourfold: the p = q = 2 closed form, a_{2,2}
    plus h^{0,0} of the discrepancy-1 components (the group (2,))."""
    _require_terminal(d, 4, "fourfold")
    return closed_form_h(d, 2, 2)


def crepant_compare(d1: ResolutionDescriptor, d2: ResolutionDescriptor) -> bool:
    """Whether two descriptors yield the same stringy E-function, exactly."""
    return first_coefficient_difference(d1, d2) is None


def first_coefficient_difference(
    d1: ResolutionDescriptor, d2: ResolutionDescriptor
) -> Optional[Tuple[int, int, int, int]]:
    """(p, q, b1, b2) at the first (p,q) in the order (p+q, (p,q)) where the
    expansions differ, or None when the E-functions are equal.

    d1 is validated, then d2, then their dimensions compared.  Equal signature
    tables (`_groups`, all that `_assemble` reads) answer "equal" with neither
    E_st assembled.  Else, over D, the union of the denominators, E_st(d1) -
    E_st(d2) = M / D with M the difference of the lifted numerators.  D is a
    polynomial in w = uv with constant term +-1, so along each diagonal the
    expansion of M / D starts at M's lowest term, times +-1: the first mismatch
    is M's least term, found with no bound.  b1 and b2 are each read off the
    one row of the function on the diagonal p - q, from the entries that
    coefficient needs.
    """
    d1.check_valid()
    d2.check_valid()
    if d1.n != d2.n:
        raise DescriptorError(f"dimension mismatch: {d1.n} vs {d2.n}")
    if d1._groups == d2._groups:
        return None
    f1, f2 = stringy_e(d1), stringy_e(d2)
    m1, m2 = f1._lifted(f2)
    if m1 == m2:
        return None
    t1, t2 = m1.terms, m2.terms
    p, q = min((k for k in t1.keys() | t2.keys() if t1.get(k, 0) != t2.get(k, 0)),
               key=lambda k: (k[0] + k[1], k))
    return p, q, f1._coefficient(p, q), f2._coefficient(p, q)
