"""Exact sparse arithmetic in two variables u, v.

Everything downstream works with Laurent polynomials in u, v with integer
coefficients, and with rational functions whose denominator is a product
of cyclotomic-like factors (uv)^m - 1 in the diagonal variable w = uv.
No floating point appears anywhere; coefficients are Python ints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

# A univariate polynomial in w is a sparse dict {exponent: coefficient}.
WPoly = Dict[int, int]


def _wclean(p: WPoly) -> WPoly:
    return {e: c for e, c in p.items() if c != 0}


def w_mul(a: WPoly, b: WPoly, bound: Optional[int] = None) -> WPoly:
    """Product of sparse w-polynomials, optionally truncated after w^bound."""
    out: WPoly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if bound is not None and e > bound:
                continue
            out[e] = out.get(e, 0) + c1 * c2
    return _wclean(out)


def w_divmod(num: WPoly, den: WPoly) -> Tuple[WPoly, WPoly]:
    """Long division of w-polynomials with nonnegative exponents.

    The divisors used here are monic up to sign in the leading term, so
    exactness over the integers is preserved whenever the division is exact.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    dtop = max(den)
    dlead = den[dtop]
    rem = dict(num)
    quo: WPoly = {}
    while rem:
        top = max(rem)
        if top < dtop:
            break
        c, r = divmod(rem[top], dlead)
        if r != 0:
            # not divisible in Z at this step; leave as remainder
            break
        shift = top - dtop
        quo[shift] = quo.get(shift, 0) + c
        for e, dc in den.items():
            rem[e + shift] = rem.get(e + shift, 0) - c * dc
        rem = _wclean(rem)
    return _wclean(quo), rem


def series_expand_factor(a: int, bound: int) -> WPoly:
    """Power-series expansion of (w - w^(a+1)) / (w^(a+1) - 1) at w = 0.

    Uses 1/(w^m - 1) = -sum_{k>=0} w^{km}; all coefficients are integers.
    A discrepancy-0 factor is identically zero.
    """
    if a < 0:
        raise ValueError("discrepancy must be nonnegative")
    if a == 0:
        return {}
    m = a + 1
    out: WPoly = {}
    for k in range(0, bound // m + 1):
        for e, c in ((1, 1), (m, -1)):
            exp = k * m + e
            if exp <= bound:
                out[exp] = out.get(exp, 0) - c
    return _wclean(out)


class BivariatePoly:
    """Sparse Laurent polynomial in u and v with integer coefficients.

    Immutable by convention: no method mutates `terms` after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Tuple[int, int], int]] = None):
        self.terms: Dict[Tuple[int, int], int] = (
            {k: c for k, c in terms.items() if c != 0} if terms else {}
        )

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "BivariatePoly":
        return cls({(0, 0): c})

    @classmethod
    def w_power(cls, k: int, c: int = 1) -> "BivariatePoly":
        """c * (uv)^k."""
        return cls({(k, k): c})

    @classmethod
    def from_w(cls, p: WPoly) -> "BivariatePoly":
        return cls({(e, e): c for e, c in p.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, p: int, q: int) -> int:
        return self.terms.get((p, q), 0)

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BivariatePoly(out)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        out: Dict[Tuple[int, int], int] = {}
        for (p1, q1), c1 in self.terms.items():
            for (p2, q2), c2 in other.terms.items():
                k = (p1 + p2, q1 + q2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivariatePoly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BivariatePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def invert_vars(self) -> "BivariatePoly":
        """Substitute u -> 1/u, v -> 1/v."""
        return BivariatePoly({(-p, -q): c for (p, q), c in self.terms.items()})

    def swap_vars(self) -> "BivariatePoly":
        """Substitute u <-> v."""
        return BivariatePoly({(q, p): c for (p, q), c in self.terms.items()})

    def total_degree(self) -> Optional[int]:
        """Maximum p + q over the support, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(p + q for p, q in self.terms)

    def __repr__(self) -> str:
        return f"BivariatePoly({self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (p, q), c in sorted(self.terms.items(), key=lambda t: (t[0][0] + t[0][1], t[0])):
            mono = ""
            if p:
                mono += f"u^{p}" if p != 1 else "u"
            if q:
                mono += f"v^{q}" if q != 1 else "v"
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def diagonal_decompose(p: BivariatePoly) -> Dict[int, WPoly]:
    """Split into diagonals: u^a v^b = u^max(d,0) v^max(-d,0) w^min(a,b), d = a-b.

    Returns {d: w-polynomial}; reassembling with diagonal_reassemble is the
    identity.
    """
    slices: Dict[int, WPoly] = {}
    for (a, b), c in p.terms.items():
        d = a - b
        k = min(a, b)
        sl = slices.setdefault(d, {})
        sl[k] = sl.get(k, 0) + c
    return {d: _wclean(sl) for d, sl in slices.items() if _wclean(sl)}


def diagonal_reassemble(slices: Mapping[int, WPoly]) -> BivariatePoly:
    terms: Dict[Tuple[int, int], int] = {}
    for d, sl in slices.items():
        for k, c in sl.items():
            key = (k + max(d, 0), k + max(-d, 0))
            terms[key] = terms.get(key, 0) + c
    return BivariatePoly(terms)


@dataclass(frozen=True)
class DenominatorSpec:
    """Multiset of exponents m_j, denoting the product of (uv)^{m_j} - 1.

    Every m_j must be at least 2: discrepancy-0 components never contribute a
    denominator factor because their numerator factor vanishes identically.
    """

    factors: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))
        for m in self.factors:
            if m < 2:
                raise ValueError(f"denominator factor w^{m} - 1 is not allowed")

    def is_trivial(self) -> bool:
        return not self.factors

    def union(self, other: "DenominatorSpec") -> "DenominatorSpec":
        """Least common multiset: max multiplicity of each factor."""
        counts = Counter(self.factors) | Counter(other.factors)
        return DenominatorSpec(tuple(counts.elements()))

    def cofactor(self, sub: "DenominatorSpec") -> "DenominatorSpec":
        """Factors of self not accounted for by sub (multiset difference)."""
        counts = Counter(self.factors) - Counter(sub.factors)
        return DenominatorSpec(tuple(counts.elements()))

    def expand_w(self) -> WPoly:
        out: WPoly = {0: 1}
        for m in self.factors:
            out = w_mul(out, {m: 1, 0: -1})
        return out

    def expand_poly(self) -> BivariatePoly:
        return BivariatePoly.from_w(self.expand_w())

    def series_inverse(self, bound: int) -> WPoly:
        """Expansion of 1/prod(w^{m_j} - 1) at w = 0, truncated after w^bound.

        Per factor, 1/(w^m - 1) = -sum_{k>=0} w^{km}.
        """
        out: WPoly = {0: 1}
        for m in self.factors:
            geom = {k * m: -1 for k in range(0, bound // m + 1)}
            out = w_mul(out, geom, bound=bound)
        return out

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"((uv)^{m} - 1)" for m in self.factors)


@dataclass(frozen=True)
class StringyFunction:
    """numerator / prod_j ((uv)^{m_j} - 1), kept unreduced.

    Sums and equality bring both sides to the union of the two denominators,
    each numerator multiplied by its own cofactor only; no GCDs are taken.
    Equal denominators are compared numerator to numerator.
    """

    numerator: BivariatePoly
    denominator: DenominatorSpec = field(default_factory=DenominatorSpec)

    def _lift(self, common: DenominatorSpec) -> BivariatePoly:
        """The numerator over common, a denominator that self's divides."""
        cofactor = common.cofactor(self.denominator)
        return self.numerator if cofactor.is_trivial() else self.numerator * cofactor.expand_poly()

    def __add__(self, other: "StringyFunction") -> "StringyFunction":
        common = self.denominator.union(other.denominator)
        return StringyFunction(self._lift(common) + other._lift(common), common)

    def mul_poly(self, p: BivariatePoly) -> "StringyFunction":
        return StringyFunction(self.numerator * p, self.denominator)

    def equals(self, other: "StringyFunction") -> bool:
        common = self.denominator.union(other.denominator)
        return self._lift(common) == other._lift(common)

    def series_coefficients(self, bound: int) -> Dict[Tuple[int, int], int]:
        """Coefficients b_{p,q} of the expansion at the origin, for p+q <= bound.

        Per diagonal slice, multiply by the series inverse of the denominator.
        """
        inv = self.denominator.series_inverse(bound)
        out: Dict[Tuple[int, int], int] = {}
        for d, sl in diagonal_decompose(self.numerator).items():
            expanded = w_mul(sl, inv, bound=bound)
            for k, c in expanded.items():
                p, q = k + max(d, 0), k + max(-d, 0)
                if p + q <= bound and c != 0:
                    out[(p, q)] = c
        return out

    def __str__(self) -> str:
        if self.denominator.is_trivial():
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"


def exact_divide_test(f: StringyFunction) -> Optional[BivariatePoly]:
    """The polynomial equal to f, if the denominator divides the numerator.

    Every denominator factor depends on w = uv alone, so divisibility is
    checked slice by slice along diagonals, by univariate long division in w.
    Returns None when f is not a polynomial.
    """
    if f.denominator.is_trivial():
        return f.numerator
    den = f.denominator.expand_w()
    quotients: Dict[int, WPoly] = {}
    for d, sl in diagonal_decompose(f.numerator).items():
        shift = min(sl)
        if shift < 0:
            sl = {e - shift: c for e, c in sl.items()}
        else:
            shift = 0
        quo, rem = w_divmod(sl, den)
        if rem:
            return None
        if shift:
            quo = {e + shift: c for e, c in quo.items()}
        quotients[d] = quo
    return diagonal_reassemble(quotients)
