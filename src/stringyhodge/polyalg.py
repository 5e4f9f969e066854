"""Exact arithmetic in two variables u, v.

Everything downstream works with Laurent polynomials in u, v with integer
coefficients, and with rational functions whose denominator is a product
of cyclotomic-like factors (uv)^m - 1 in the diagonal variable w = uv.
Along each diagonal such a function is a univariate series in w, written
in one form: a row, the dense list of w-coefficients keyed by its lowest
monomial (p, q), whose entry k is the coefficient of u^{p+k} v^{q+k}.
One recurrence on rows serves expansion and exact division:
1/(w^m - 1) = -sum_k w^{km}, i.e. q = p/(w^m - 1) has q_k = q_{k-m} - p_k.
The assembly builds its rows Kronecker-packed, w = 2^b with b a multiple
of 8, and `_unpack` turns each into a list once.  No floating point
appears anywhere; coefficients are Python ints.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

def _times(p: List[int], m: int) -> List[int]:
    """Coefficients of p * (w^m - 1)."""
    return [x - y for x, y in zip([0] * m + p, p + [0] * m)]


def _over(p: Sequence[int], factors: Sequence[int], length: int) -> List[int]:
    """The first `length` series coefficients of p / prod (w^m - 1) at w = 0.

    Per factor, p = q * (w^m - 1) gives q_k = q_{k-m} - p_k, with q_k = 0
    for k < 0 (the zeros in front of the working list).
    """
    pad = max(factors, default=0)
    q = [0] * pad + list(p[:length]) + [0] * (length - len(p))
    for m in factors:
        for k in range(pad, pad + length):
            q[k] = q[k - m] - q[k]
    return q[pad:]


def _digit_bytes(bound: int) -> int:
    """Bytes per digit of a packed row whose coefficients c satisfy |c| <= bound.

    The digit holds c in two's complement, so 8 * size - 1 bits must exceed
    bound's; sizes up to 8 are rounded up to 1, 2, 4 or 8 for `_unpack`.
    """
    size = (bound.bit_length() + 8) // 8
    return 1 << (size - 1).bit_length() if size <= 8 else size


_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}  # native formats, by item size in bytes


def _unpack(packed: int, size: int, length: int) -> List[int]:
    """The row c_0 .. c_{length-1} of packed = sum c_k 2^(8 size k), each
    |c_k| < 2^(8 size - 1) (a Kronecker substitution w = 2^(8 size)).

    Adding 2^(8 size - 1) to every digit makes them all nonnegative, which
    the borrows between negative digits otherwise spoil; flipping that top
    bit back leaves each digit as c_k in two's complement.
    """
    top = int.from_bytes((b"\0" * (size - 1) + b"\x80") * length, "little")
    raw = ((packed + top) ^ top).to_bytes(size * length, sys.byteorder)
    if size in _SIGNED:
        return memoryview(raw).cast(_SIGNED[size]).tolist()
    return [int.from_bytes(raw[i:i + size], sys.byteorder, signed=True)
            for i in range(0, len(raw), size)]


def _spread(rows: Mapping[Tuple[int, int], Sequence[int]]) -> BivariatePoly:
    """The polynomial whose diagonals are the rows: entry k of row (p, q) is
    the coefficient of u^{p+k} v^{q+k}, summed where rows overlap."""
    terms: Dict[Tuple[int, int], int] = {}
    for (p, q), row in rows.items():
        for k, c in enumerate(row):
            if c:
                terms[p + k, q + k] = terms.get((p + k, q + k), 0) + c
    return BivariatePoly(terms)


class BivariatePoly:
    """Sparse Laurent polynomial in u and v with integer coefficients.

    Immutable by convention: no method mutates `terms` after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Tuple[int, int], int]] = None):
        self.terms: Dict[Tuple[int, int], int] = (
            {k: c for k, c in terms.items() if c != 0} if terms else {}
        )

    def coeff(self, p: int, q: int) -> int:
        return self.terms.get((p, q), 0)

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BivariatePoly(out)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        out: Dict[Tuple[int, int], int] = {}
        for (p1, q1), c1 in self.terms.items():
            for (p2, q2), c2 in other.terms.items():
                k = (p1 + p2, q1 + q2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivariatePoly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BivariatePoly) and self.terms == other.terms

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

    def union(self, other: "DenominatorSpec") -> "DenominatorSpec":
        """Least common multiset: max multiplicity of each factor."""
        counts = Counter(self.factors) | Counter(other.factors)
        return DenominatorSpec(tuple(counts.elements()))

    def cofactor(self, sub: "DenominatorSpec") -> "DenominatorSpec":
        """Factors of self not accounted for by sub (multiset difference)."""
        counts = Counter(self.factors) - Counter(sub.factors)
        return DenominatorSpec(tuple(counts.elements()))

    def expand(self) -> List[int]:
        """Coefficients of prod (w^m - 1), lowest degree first."""
        out = [1]
        for m in self.factors:
            out = _times(out, m)
        return out

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"((uv)^{m} - 1)" for m in self.factors)


@dataclass(frozen=True)
class StringyFunction:
    """numerator / prod_j ((uv)^{m_j} - 1), kept unreduced.

    Equality brings both sides to the union of the two denominators,
    each numerator multiplied by its own cofactor only; no GCDs are taken.
    Equal denominators are compared numerator to numerator.
    """

    numerator: BivariatePoly
    denominator: DenominatorSpec = field(default_factory=DenominatorSpec)

    def _lift(self, common: DenominatorSpec) -> BivariatePoly:
        """The numerator over common, a denominator that self's divides."""
        cofactor = common.cofactor(self.denominator)
        if not cofactor.factors:
            return self.numerator
        return self.numerator * _spread({(0, 0): cofactor.expand()})

    def equals(self, other: "StringyFunction") -> bool:
        common = self.denominator.union(other.denominator)
        return self._lift(common) == other._lift(common)

    @cached_property
    def _slices(self) -> Dict[Tuple[int, int], List[int]]:
        """The numerator as one row per diagonal, keyed by its lowest monomial,
        with nonzero first and last entries; split once per function."""
        rows: Dict[int, Tuple[Tuple[int, int], List[int]]] = {}
        for (a, b), c in sorted(self.numerator.terms.items()):
            (p, _), row = rows.setdefault(a - b, ((a, b), []))
            row.extend([0] * (a - p - len(row)))
            row.append(c)
        return dict(rows.values())

    def series_coefficients(self, bound: int) -> Dict[Tuple[int, int], int]:
        """Coefficients b_{p,q} of the expansion at the origin, for p+q <= bound.

        Entry k of row (p, q) sits at total degree p + q + 2k, so each row is
        expanded to (bound - p - q) // 2 + 1 terms (none when that is below 1).
        """
        factors = self.denominator.factors
        return _spread({
            (p, q): _over(row, factors, max(0, (bound - p - q) // 2 + 1))
            for (p, q), row in self._slices.items()
        }).terms

    def __str__(self) -> str:
        if not self.denominator.factors:
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"


def exact_divide_test(f: StringyFunction) -> Optional[BivariatePoly]:
    """The polynomial equal to f, if the denominator divides the numerator.

    Every denominator factor depends on w = uv alone, so divisibility is
    checked row by row.  A row p of degree N over D of degree M is expanded
    to N + 1 terms; D divides p iff the top M of them vanish, and the rest
    is the quotient row Q, keyed like p (p - D*Q has degree at most N and
    equals D times a series starting at w^{N+1}).  Returns None when f is
    not a polynomial.
    """
    if not f.denominator.factors:
        return f.numerator
    factors = f.denominator.factors
    quotients: Dict[Tuple[int, int], List[int]] = {}
    for pq, row in f._slices.items():
        series = _over(row, factors, len(row))
        cut = max(0, len(row) - sum(factors))
        if any(series[cut:]):
            return None
        quotients[pq] = series[:cut]
    return _spread(quotients)
