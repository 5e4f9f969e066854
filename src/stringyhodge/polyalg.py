"""Exact arithmetic in two variables u, v.

Everything downstream works with Laurent polynomials in u, v with integer
coefficients, and with rational functions whose denominator is a product
of cyclotomic-like factors (uv)^m - 1 in the diagonal variable w = uv.
Along each diagonal such a function is a univariate series in w, written in
one form: a row, the dense list of w-coefficients keyed by its lowest monomial
(p, q), whose entry k is the coefficient of u^{p+k} v^{q+k}; rows on distinct
diagonals become a polynomial in `_spread` alone.  One recurrence on rows
serves expansion and exact division:
1/(w^m - 1) = -sum_k w^{km}, i.e. q = p/(w^m - 1) has q_k = q_{k-m} - p_k.
Sums of products of binomials w^e - 1, E_st's numerator among them, are
built in `_binomial_sum` alone, Kronecker-packed with w = 2^b, each term
added straight into the one row of its diagonal.  No floating point
appears anywhere; coefficients are Python ints.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

def _over(p: Sequence[int], factors: Sequence[int], length: int) -> List[int]:
    """The first `length` series coefficients of p / prod (w^m - 1) at w = 0.

    Per factor, p = q * (w^m - 1) gives q_k = q_{k-m} - p_k, with q_k = 0
    for k < 0 (the zeros in front of the working list).  A factor m >= length
    reads only those zeros, so it flips the sign and no more, and the list
    is padded by the largest factor below length.
    """
    small = [m for m in factors if m < length]
    pad = max(small, default=0)
    q = [0] * pad + list(p[:length]) + [0] * (length - len(p))
    for m in small:
        for k in range(pad, pad + length):
            q[k] = q[k - m] - q[k]
    if (len(factors) - len(small)) % 2:
        return [-c for c in q[pad:]]
    return q[pad:]


def _over_at(p: Sequence[int], factors: Sequence[int], k: int) -> int:
    """Entry k of _over(p, factors, k + 1), formed from the entries it needs.

    After factor m, entry i is q_{i-m} minus entry i of the stage before, so
    entry k needs entries k, k - m, k - 2m, ... >= 0 of that stage, and so
    on back to p: a handful where the factors are large.
    """
    stages = []
    wanted = {k}
    for m in reversed(factors):
        tops: Dict[int, int] = {}  # the largest wanted index of each residue mod m
        for i in wanted:
            if i > tops.get(i % m, -1):
                tops[i % m] = i
        wanted = {j for top in tops.values() for j in range(top, -1, -m)}
        stages.append(wanted)
    q = {i: p[i] if i < len(p) else 0 for i in wanted}
    for m, wanted in zip(factors, reversed(stages)):
        for i in sorted(wanted):  # q_{i-m} is already this stage's, as in _over
            q[i] = q.get(i - m, 0) - q[i]
    return q[k]


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
    """The polynomial whose diagonals are the rows: entry k of row (p, q) is the
    coefficient of u^{p+k} v^{q+k}.  The rows lie on distinct diagonals (`_slices`,
    series and quotient rows), so the nonzero entries, found in C, are the terms."""
    poly = object.__new__(BivariatePoly)
    poly.terms = {(p + k, q + k): row[k]
                  for (p, q), row in rows.items() for k in compress(range(len(row)), row)}
    return poly


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

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"((uv)^{m} - 1)" for m in self.factors)


@dataclass(frozen=True, init=False)
class StringyFunction:
    """numerator / prod_j ((uv)^{m_j} - 1), unreduced, kept as built: a numerator,
    or rows alone (`_binomial_sum`); the other form is made on its first read.

    Equality brings both sides to the union of the two denominators (see
    `_lifted`); equal denominators are compared numerator to numerator.
    """

    numerator: BivariatePoly = cached_property(lambda self: _spread(self._slices))
    denominator: DenominatorSpec

    def __init__(self, numerator: BivariatePoly, denominator: DenominatorSpec = DenominatorSpec()):
        self.__dict__.update(numerator=numerator, denominator=denominator)

    def _lifted(self, other: "StringyFunction") -> List[BivariatePoly]:
        """Both numerators over D, the union of the two denominators, each times
        its own cofactor's binomials w^m - 1 one by one; no GCDs are taken."""
        common = self.denominator.union(other.denominator)
        lifts = []
        for f in (self, other):
            lift = f.numerator
            for m in common.cofactor(f.denominator).factors:
                lift = lift * BivariatePoly({(m, m): 1, (0, 0): -1})
            lifts.append(lift)
        return lifts

    def equals(self, other: "StringyFunction") -> bool:
        """Whether self - other = M / D is 0, M being the lifted numerators' difference."""
        a, b = self._lifted(other)
        return a == b

    @cached_property
    def _slices(self) -> Dict[Tuple[int, int], List[int]]:
        """The numerator as one row per diagonal, keyed by its lowest monomial,
        with nonzero first and last entries; split once per function, and
        never for one built by `_binomial_sum`."""
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

    def _coefficient(self, p: int, q: int) -> int:
        """b_{p,q} alone, from the one row on the diagonal p - q."""
        for (p0, q0), row in self._slices.items():
            if p0 - q0 == p - q:
                return _over_at(row, self.denominator.factors, p - p0) if p >= p0 else 0
        return 0

    def __str__(self) -> str:
        if not self.denominator.factors:
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"


def _binomial_sum(products: Sequence[Tuple[Mapping[Tuple[int, int], int], Sequence[int], int]],
                  denominator: DenominatorSpec) -> StringyFunction:
    """sum terms * w^shift * prod (w^e - 1) over the (terms, exponents, shift)
    of `products`, over denominator, kept as its rows (`_slices`) alone; the
    terms' (p, q) are nonnegative.

    Kronecker-packed: w becomes 2^b, a row the one integer sum c_k 2^{bk},
    and w^e - 1 the shift-and-subtract F << be - F.  Each term c u^p v^q adds
    c F << b (shift + min(p, q)) into the one row of its diagonal p - q, which
    starts at u^max(p-q,0) v^max(q-p,0).  A product of k binomials has
    coefficients at most 2^k in size, so b holds the sum of sum |c| * 2^k over
    the products.  Each diagonal is unpacked once, without its zero ends, and
    spread into the numerator only if read.
    """
    size = _digit_bytes(sum(sum(map(abs, terms.values())) << len(exponents)
                            for terms, exponents, _ in products))
    b = 8 * size
    packed: Dict[int, int] = {}  # p - q -> the packed row of its diagonal
    for terms, exponents, shift in products:
        factor = 1
        for e in exponents:
            factor = (factor << b * e) - factor
        for (p, q), c in terms.items():
            packed[p - q] = packed.get(p - q, 0) + (c * factor << b * (shift + min(p, q)))
    rows: Dict[Tuple[int, int], List[int]] = {}
    for diagonal, row in packed.items():
        if row:
            k = ((row & -row).bit_length() - 1) // b  # zero digits below the first nonzero one
            row >>= b * k
            # every digit is below 2^(b-1) in size, so with digit h the last
            # nonzero one |row| lies in (2^(bh-1), 2^(bh+b-1)): bh to bh+b-1 bits
            rows[max(diagonal, 0) + k, max(-diagonal, 0) + k] = _unpack(
                row, size, abs(row).bit_length() // b + 1)
    f = object.__new__(StringyFunction)
    f.__dict__.update(denominator=denominator, _slices=rows)
    return f


def exact_divide_test(f: StringyFunction) -> Optional[BivariatePoly]:
    """The polynomial equal to f, if the denominator divides the numerator.

    Every denominator factor depends on w = uv alone, so divisibility is
    checked row by row.  A row p of degree N over D of degree M is expanded
    to N + 1 terms; D divides p iff the top M of them vanish, and the rest
    is the quotient row Q, keyed like p (p - D*Q has degree at most N and
    equals D times a series starting at w^{N+1}).  Returns None when f is
    not a polynomial.

    Before any expansion, each row is tested against each distinct factor
    w^m - 1 from its nonzero entries alone: w^m - 1 is squarefree with the
    m-th roots of unity as its roots, so it divides a row iff the row's
    entries summed per residue of their index mod m all vanish.  A row that
    fails proves f is not a polynomial, whatever the size of m.
    """
    if not f.denominator.factors:
        return f.numerator
    factors = f.denominator.factors
    for m in set(factors):
        for row in f._slices.values():
            sums: Dict[int, int] = {}
            for k in compress(range(len(row)), row):
                sums[k % m] = sums.get(k % m, 0) + row[k]
            if any(sums.values()):
                return None
    quotients: Dict[Tuple[int, int], List[int]] = {}
    for pq, row in f._slices.items():
        series = _over(row, factors, len(row))
        cut = max(0, len(row) - sum(factors))
        if any(series[cut:]):
            return None
        quotients[pq] = series[:cut]
    return _spread(quotients)
