"""Weight-graded cohomology of a simple normal crossings variety.

The combinatorial input is the collection of connected components of the
multiple-intersection loci D(r), together with face data saying which
component of D(r) each component of D(r+1) maps into.  The H^0 row of the
weight spectral complex is assembled from this incidence data alone; higher
rows need user-supplied restriction-map matrices, which the source data
offers no algorithm for.

Matrices are integer matrices.  The loader reads an integral entry as an
int, and a map of ints is copied as it is; only a map with a non-integral
entry is scaled by the lcm of its denominators, once, when SncComplexData is
built, which changes neither its rank nor whether consecutive maps compose
to zero.  Ranks come from fraction-free elimination on sparse rows, along
the shorter side of the matrix: each row is updated in place, loses an
entry the moment it becomes 0 and is divided by its content.  Products of
maps, formed to check that they compose to zero, skip zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from math import gcd, lcm
from operator import attrgetter
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import hodge
from .hodge import HodgeDiamond, _ValidOnce

Matrix = List[List[int]]  # rows x cols


class SncDataError(ValueError):
    """Raised when incidence or matrix data is inconsistent."""


def _integral(m) -> Matrix:
    """The rational matrix m as fresh integer rows: a matrix of ints is copied,
    one holding a Fraction is multiplied by the lcm of its denominators.

    As for a diamond's entries, a row that is not a list, or an entry that is
    neither an int nor a Fraction (a bool included), raises SncDataError.
    The rows are listed first, so a one-shot iterator of them is read once.
    """
    m = list(m)
    if not {list}.issuperset(map(type, m)):
        bad = next(row for row in m if type(row) is not list)
        raise SncDataError(f"row {bad!r} is not a list")
    types = set(map(type, chain.from_iterable(m)))  # the type tests run in C
    if {int}.issuperset(types):
        return list(map(list, m))
    if not {int, Fraction}.issuperset(types):
        bad = next(x for row in m for x in row if type(x) not in (int, Fraction))
        raise SncDataError(f"entry {bad!r} is neither an int nor a Fraction")
    scale = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in m]


def _sparse(rows: Matrix) -> List[Dict[int, int]]:
    """Each row as {column: entry} of its nonzero entries."""
    return [dict(compress(enumerate(row), row)) for row in rows]


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """The row divided by the gcd of its entries (its content)."""
    content = gcd(*row.values())  # 0 for an empty row
    if content <= 1:
        return row
    return {j: v // content for j, v in row.items()}


def exact_rank(rows: Matrix, ncols: int) -> int:
    """Rank of an integer matrix by fraction-free elimination on sparse rows.

    Each row is kept as its nonzero entries {column: int}.  When there are
    more nonzero rows than columns the matrix is transposed once (rank A =
    rank A^T), so elimination runs along the shorter side.  Rows are divided
    by their content.  A pivot row p is taken out, with its entry of least
    absolute value in column c, and every row r with an entry in column c
    becomes p[c]*r - r[c]*p in place, an entry deleted as soon as it is 0,
    then divided by its content; rows with no entry in column c are not
    touched.  Each pivot adds one to the rank.
    """
    if any(len(row) != ncols for row in rows):
        raise SncDataError("ragged matrix")
    pending = [row for row in _sparse(rows) if row]
    if len(pending) > ncols:
        columns: Dict[int, Dict[int, int]] = {}
        for i, row in enumerate(pending):
            for j, v in row.items():
                columns.setdefault(j, {})[i] = v
        pending = list(columns.values())
    pending = list(map(_primitive, pending))
    rank = 0
    while pending:
        pivot = pending.pop()
        col, head = min(pivot.items(), key=lambda item: abs(item[1]))
        rank += 1
        kept = []
        for row in pending:
            factor = row.get(col)
            if factor is not None:
                if head != 1:
                    for j in row:
                        row[j] *= head
                for j, v in pivot.items():
                    entry = row.get(j, 0) - factor * v
                    if entry:
                        row[j] = entry
                    else:
                        del row[j]
                if not row:
                    continue
                row = _primitive(row)
            kept.append(row)
        pending = kept
    return rank


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a.b of two integer matrices.

    Each row of the product sums x*y over the nonzero entries x of a row of a
    and the nonzero entries y of the matching row of b only.
    """
    if any(len(row) != len(b) for row in a):
        raise SncDataError("matrix shapes do not compose")
    cols = len(b[0]) if b else 0
    b_rows = _sparse(b)
    out: Matrix = []
    for a_row in a:
        acc = [0] * cols
        for i, x in compress(enumerate(a_row), a_row):
            for j, y in b_rows[i].items():
                acc[j] += x * y
        out.append(acc)
    return out


@dataclass(frozen=True)
class SncComponent:
    """One connected component of D(r).

    subset is the sorted tuple of distinct divisor ids whose intersection contains the
    component; faces[t] is the index (within level r-1) of the component of
    D(r-1) it maps into when the t-th id of subset is dropped.
    """

    subset: Tuple[str, ...]
    diamond: Optional[HodgeDiamond] = None
    faces: Tuple[int, ...] = ()


@dataclass(frozen=True)
class SncComplexData(_ValidOnce):
    """Components of each D(r), r >= 1, plus optional restriction matrices.

    user_maps[(k, p, q)] is the list [delta_1, delta_2, ...] of matrices of
    the coboundary on the (p,q) piece of the H^k row; delta_r has one row per
    basis vector of H^k(D(r+1)) and one column per basis vector of H^k(D(r)).
    Each matrix is kept as the fresh integer rows made by _integral.  The
    key (0, 0, 0) is rejected: the H^0 row comes from the incidence data.

    Both mappings are read-only, so what is derived from them alone is kept
    on the instance once it succeeds: the validation, the H^0 coboundary chain
    and the ranks of each weight row.  Failures are never kept.
    """

    levels: Mapping[int, Tuple[SncComponent, ...]]
    user_maps: Mapping[Tuple[int, int, int], Tuple[Matrix, ...]] = field(default_factory=dict)

    _error = SncDataError

    def __post_init__(self):
        levels = {r: tuple(cs) for r, cs in self._read("levels", dict).items()}
        object.__setattr__(self, "levels", MappingProxyType(levels))
        maps = {}
        for key, mats in self._read("user_maps", dict).items():
            if not (type(key) is tuple and len(key) == 3 and {int}.issuperset(map(type, key))):
                raise SncDataError(f"user map key {key!r} is not a triple (k, p, q) of ints")
            try:
                maps[key] = tuple(map(_integral, mats))
            except SncDataError as exc:
                raise SncDataError("user map ({},{},{}): {}".format(*key, exc)) from None
        object.__setattr__(self, "user_maps", MappingProxyType(maps))
        object.__setattr__(self, "_ranked_rows", {})

    def max_level(self) -> int:
        return max((r for r, cs in self.levels.items() if cs), default=0)

    def components(self, r: int) -> Tuple[SncComponent, ...]:
        return self.levels.get(r, ())

    def validate(self) -> List[str]:
        subsets = map(attrgetter("subset"), chain.from_iterable(self.levels.values()))
        if not {str}.issuperset(map(type, chain.from_iterable(subsets))):  # the rules sort ids
            r, i = next((r, i) for r, cs in self.levels.items() for i, c in enumerate(cs)
                        if not {str}.issuperset(map(type, c.subset)))
            return self._kept([f"level {r} component {i}: subset names an id that is not "
                               "a string"])
        problems = []
        for r, comps in self.levels.items():
            for idx, comp in enumerate(comps):
                if comp.diamond is not None:
                    problems += (f"level {r} component {idx}: {msg}"
                                 for msg in hodge._verdict(comp.diamond))
                if len(comp.subset) != r:
                    problems.append(
                        f"level {r} component {idx}: subset size {len(comp.subset)} != {r}"
                    )
                if tuple(sorted(comp.subset)) != comp.subset:
                    problems.append(f"level {r} component {idx}: subset not sorted")
                if len(set(comp.subset)) != len(comp.subset):
                    problems.append(f"level {r} component {idx}: subset repeats an id")
                problems += _face_problems(self, r, idx)
        # the H^0 row once the incidence is sound, then every supplied row
        rows = [] if problems else [(0, 0, 0)]
        if (0, 0, 0) in self.user_maps:
            problems.append("user map (0,0,0): the H^0 row is built from the incidence data")
        rows += [key for key in self.user_maps if key != (0, 0, 0)]
        for k, p, q in rows:
            label = f"user map ({k},{p},{q})"
            try:
                dims, mats = self._row(k, p, q)
            except SncDataError as exc:
                problems.append(f"{label}: {exc}")
                continue
            misshapen = [
                f"{label} delta_{i + 1}: shape {_shape(mat)} "
                f"does not match declared dimensions {dims[i + 1]}x{dims[i]}"
                for i, mat in enumerate(mats)
                if len(mat) != dims[i + 1] or any(len(row) != dims[i] for row in mat)
            ]
            problems += misshapen
            if misshapen:
                continue
            for i in range(1, len(mats)):
                if any(map(any, matrix_mul(mats[i], mats[i - 1]))):
                    broken = f"delta_{i + 1} . delta_{i} != 0"
                    h0 = (k, p, q) == (0, 0, 0)
                    problems.append(f"{broken} on the H^0 row" if h0 else f"{label}: {broken}")
        return self._kept(problems)

    @cached_property
    def _h0_chain(self) -> Tuple[Matrix, ...]:
        """delta_1, ..., delta_{top-1} of the H^0 row, built once per instance from
        faces that passed `validate`: face t of a component carries (-1)^t."""
        chain = []
        for r in range(2, self.max_level() + 1):
            chain.append([[0] * len(self.components(r - 1)) for _ in self.components(r)])
            for row, comp in zip(chain[-1], self.components(r)):
                for t, fidx in enumerate(comp.faces):
                    row[fidx] += (-1) ** t
        return tuple(chain)

    def _row(self, k: int, p: int, q: int) -> Tuple[List[int], Sequence[Matrix]]:
        """Space dimensions and maps of a weight row: H^0 from the incidence, others supplied."""
        if (k, p, q) == (0, 0, 0):
            dims = [len(self.components(r)) for r in range(1, self.max_level() + 1)]
            return dims, self._h0_chain
        if p + q != k:
            raise SncDataError(f"Hodge piece ({p},{q}) does not lie in degree {k}")
        mats = self.user_maps.get((k, p, q))
        if mats is None:
            raise SncDataError(
                f"no restriction matrices supplied for degree {k}, piece ({p},{q}); "
                "the row cannot be computed"
            )
        return [self._piece_dim(r, p, q) for r in range(1, len(mats) + 2)], mats

    def _weight_row(self, k: int, p: int, q: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Space dimensions and map ranks of the (k, p, q) weight row.

        ranks[i] is the rank of delta_{i+1}.  Each row is ranked once per
        instance; a row that cannot be built raises and is not kept.
        """
        row = self._ranked_rows.get((k, p, q))
        if row is None:
            dims, mats = self._row(k, p, q)
            ranks = tuple(exact_rank(mat, dims[i]) for i, mat in enumerate(mats))
            row = self._ranked_rows[(k, p, q)] = (tuple(dims), ranks)
        return row

    def _piece_dim(self, r: int, p: int, q: int) -> int:
        """Dimension of the (p,q) piece of H^{p+q}(D(r)) from the diamonds."""
        total = 0
        for comp in self.components(r):
            if not isinstance(comp.diamond, HodgeDiamond):
                raise SncDataError(
                    f"level {r} component {comp.subset} has no diamond; "
                    "cannot size the Hodge piece"
                )
            total += comp.diamond.hpq(p, q)
        return total


def _shape(mat: Matrix) -> str:
    """rows x columns of mat; a ragged matrix shows each width, as 2x3/4."""
    return f"{len(mat)}x" + ("/".join(map(str, sorted({len(row) for row in mat}))) or "0")


def _face_problems(data: SncComplexData, r: int, idx: int) -> List[str]:
    """Problems with the faces of component idx of D(r), by the one face rule.

    A component of D(1) has no faces; one of D(r), r >= 2, has r, and face t
    indexes the component of D(r-1) whose subset drops the t-th id.
    """
    comp = data.components(r)[idx]
    count = r if r >= 2 else 0
    if len(comp.faces) != count:
        return [f"level {r} component {idx}: expected {count} faces, got {len(comp.faces)}"]
    below = data.components(r - 1)
    problems = []
    for t, fidx in enumerate(comp.faces):
        expected = comp.subset[:t] + comp.subset[t + 1 :]
        if not (type(fidx) is int and 0 <= fidx < len(below)):
            problems.append(f"face index {fidx!r} out of range")
        elif below[fidx].subset != expected:
            problems.append(
                f"face {t} lands in subset {below[fidx].subset}, expected {expected}"
            )
    return [f"level {r} component {idx}: {problem}" for problem in problems]


def coboundary_h0(data: SncComplexData, r: int) -> Matrix:
    """Simplicial coboundary delta_r : H^0(D(r)) -> H^0(D(r+1)).

    Signs follow the Cech convention: dropping the t-th id of a sorted subset
    carries the sign (-1)^t.  Rows index components of D(r+1), columns
    components of D(r); the matrix is empty when either level is.  Data that
    fails `validate` raises; the result is a fresh copy of the H^0 chain.
    """
    if r < 1:
        raise SncDataError("levels start at r = 1")
    data.check_valid()
    chain = data._h0_chain
    return [list(row) for row in chain[r - 1]] if r <= len(chain) else []


def weight_graded_dims(data: SncComplexData, k: int, l: int, p: int, q: int) -> int:
    """Dimension of the (p,q) piece of Gr^W_k H^{k+l}(D).

    Computed as dim ker(delta_{l+1}) - rank(delta_l) at the spot H^k(D(l+1))
    of the weight complex; delta_0 = 0 and maps past the chain are zero.
    """
    data.check_valid()
    if l < 0:
        raise SncDataError("l must be nonnegative")
    dims, ranks = data._weight_row(k, p, q)
    if l >= len(dims):
        return 0
    rank_out = ranks[l] if l < len(ranks) else 0
    rank_in = ranks[l - 1] if l >= 1 else 0
    return (dims[l] - rank_out) - rank_in


def purity_consequence_check(data: SncComplexData, n: int, s: int) -> Dict[str, object]:
    """Exactness of the weight rows in degrees k >= n + s.

    For the H^0 row (when 0 >= n + s) and each supplied row with k >= n + s,
    the complex must be exact except at the first spot; when it is, the
    surviving dimension there equals the alternating sum of the row's space
    dimensions, reported as h^{p,q}(D).
    """
    data.check_valid()
    rows = {}
    for (k, p, q) in [(0, 0, 0), *sorted(data.user_maps)]:
        if k < n + s:
            continue
        dims, _ = data._weight_row(k, p, q)
        spots = [(l, weight_graded_dims(data, k, l, p, q)) for l in range(1, len(dims))]
        failing = [(l, dim) for l, dim in spots if dim != 0]
        entry: Dict[str, object] = {"exact": not failing, "failing_spots": failing}
        if not failing:
            entry["h_pq_D"] = sum((-1) ** i * dim for i, dim in enumerate(dims))
        rows[(k, p, q)] = entry
    return {
        "threshold": n + s,
        "rows": rows,
        "all_exact": all(row["exact"] for row in rows.values()),
    }
