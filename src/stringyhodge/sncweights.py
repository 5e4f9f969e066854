"""Weight-graded cohomology of a simple normal crossings variety.

The combinatorial input is the collection of connected components of the
multiple-intersection loci D(r), together with face data saying which
component of D(r) each component of D(r+1) maps into.  The H^0 row of the
weight spectral complex is assembled from this incidence data alone; higher
rows need user-supplied restriction-map matrices, which the source data
offers no algorithm for.

All ranks are computed exactly over the rationals (fraction-free
elimination on integer matrices after clearing denominators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .hodge import HodgeDiamond

Matrix = List[List[Fraction]]  # rows x cols


class SncDataError(ValueError):
    """Raised when incidence or matrix data is inconsistent."""


def exact_rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination.

    Denominators are cleared per row first, so all pivots stay integral.
    """
    mat: List[List[int]] = []
    for row in rows:
        if len(row) != ncols:
            raise SncDataError("ragged matrix")
        scale = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        mat.append([int(Fraction(x) * scale) for x in row])
    nrows = len(mat)
    rank = 0
    prev = 1
    col = 0
    while rank < nrows and col < ncols:
        pivot_row = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                mat[r][c] = (pivot * mat[r][c] - mat[r][col] * mat[rank][c]) // prev
            mat[r][col] = 0
        prev = pivot
        rank += 1
        col += 1
    return rank


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise SncDataError("matrix shapes do not compose")
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum((row[i] * b[i][j] for i in range(inner)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


@dataclass(frozen=True)
class SncComponent:
    """One connected component of D(r).

    subset is the sorted tuple of divisor ids whose intersection contains the
    component; faces[t] is the index (within level r-1) of the component of
    D(r-1) it maps into when the t-th id of subset is dropped.
    """

    subset: Tuple[str, ...]
    diamond: Optional[HodgeDiamond] = None
    faces: Tuple[int, ...] = ()


@dataclass(frozen=True)
class SncComplexData:
    """Components of each D(r), r >= 1, plus optional restriction matrices.

    user_maps[(k, p, q)] is the list [delta_1, delta_2, ...] of matrices of
    the coboundary on the (p,q) piece of the H^k row; delta_r has one row per
    basis vector of H^k(D(r+1)) and one column per basis vector of H^k(D(r)).

    Both mappings are read-only, so a successful validation is recorded on
    the instance and not repeated.
    """

    levels: Mapping[int, Tuple[SncComponent, ...]]
    user_maps: Mapping[Tuple[int, int, int], Tuple[Matrix, ...]] = field(
        default_factory=dict
    )

    _valid = False  # set by the first validate() that finds no problem

    def __post_init__(self):
        object.__setattr__(
            self,
            "levels",
            MappingProxyType({r: tuple(cs) for r, cs in dict(self.levels).items()}),
        )
        object.__setattr__(self, "user_maps", MappingProxyType(dict(self.user_maps)))

    def max_level(self) -> int:
        return max((r for r, cs in self.levels.items() if cs), default=0)

    def components(self, r: int) -> Tuple[SncComponent, ...]:
        return self.levels.get(r, ())

    def validate(self) -> List[str]:
        problems = []
        for r, comps in self.levels.items():
            for idx, comp in enumerate(comps):
                if len(comp.subset) != r:
                    problems.append(
                        f"level {r} component {idx}: subset size {len(comp.subset)} != {r}"
                    )
                if tuple(sorted(comp.subset)) != comp.subset:
                    problems.append(f"level {r} component {idx}: subset not sorted")
                if r >= 2:
                    if len(comp.faces) != r:
                        problems.append(
                            f"level {r} component {idx}: expected {r} faces, got {len(comp.faces)}"
                        )
                        continue
                    below = self.components(r - 1)
                    for t, fidx in enumerate(comp.faces):
                        if not (0 <= fidx < len(below)):
                            problems.append(
                                f"level {r} component {idx}: face index {fidx} out of range"
                            )
                            continue
                        expected = comp.subset[:t] + comp.subset[t + 1 :]
                        if below[fidx].subset != expected:
                            problems.append(
                                f"level {r} component {idx}: face {t} lands in subset "
                                f"{below[fidx].subset}, expected {expected}"
                            )
        # consecutive coboundaries must compose to zero
        if not problems:
            for r in range(1, self.max_level()):
                d1 = coboundary_h0(self, r)
                d2 = coboundary_h0(self, r + 1)
                if d1 and d2 and not is_zero_matrix(matrix_mul(d2, d1)):
                    problems.append(f"delta_{r + 1} . delta_{r} != 0 on the H^0 row")
        for (k, p, q), mats in self.user_maps.items():
            dims = [self._piece_dim(r, p, q) for r in range(1, len(mats) + 2)]
            for i, mat in enumerate(mats):
                nrows, ncols = len(mat), len(mat[0]) if mat else 0
                if (nrows, ncols) != (dims[i + 1], dims[i]) and mat:
                    problems.append(
                        f"user map ({k},{p},{q}) delta_{i + 1}: shape {nrows}x{ncols} "
                        f"does not match declared dimensions {dims[i + 1]}x{dims[i]}"
                    )
            for i in range(len(mats) - 1):
                if mats[i] and mats[i + 1] and not is_zero_matrix(
                    matrix_mul(mats[i + 1], mats[i])
                ):
                    problems.append(
                        f"user map ({k},{p},{q}): delta_{i + 2} . delta_{i + 1} != 0"
                    )
        if not problems:
            object.__setattr__(self, "_valid", True)
        return problems

    def check_valid(self) -> None:
        if self._valid:
            return
        problems = self.validate()
        if problems:
            raise SncDataError("; ".join(problems))

    def _piece_dim(self, r: int, p: int, q: int) -> int:
        """Dimension of the (p,q) piece of H^{p+q}(D(r)) from the diamonds."""
        total = 0
        for comp in self.components(r):
            if comp.diamond is None:
                raise SncDataError(
                    f"level {r} component {comp.subset} has no diamond; "
                    "cannot size the Hodge piece"
                )
            total += comp.diamond.hpq(p, q)
        return total


def coboundary_h0(data: SncComplexData, r: int) -> Matrix:
    """Simplicial coboundary delta_r : H^0(D(r)) -> H^0(D(r+1)).

    Signs follow the Cech convention: dropping the t-th id of a sorted subset
    carries the sign (-1)^t.  Rows index components of D(r+1), columns
    components of D(r); the matrix is empty when either level is.
    """
    if r < 1:
        raise SncDataError("levels start at r = 1")
    below = data.components(r)
    above = data.components(r + 1)
    matrix: Matrix = []
    for comp in above:
        row = [Fraction(0)] * len(below)
        for t, fidx in enumerate(comp.faces):
            expected = comp.subset[:t] + comp.subset[t + 1 :]
            if not (0 <= fidx < len(below)) or below[fidx].subset != expected:
                raise SncDataError(
                    f"inconsistent incidence for component {comp.subset} at face {t}"
                )
            row[fidx] += Fraction((-1) ** t)
        matrix.append(row)
    return matrix


def _row_maps_and_dims(
    data: SncComplexData, k: int, p: int, q: int
) -> Tuple[List[Matrix], List[int]]:
    """The coboundary chain and space dimensions for one (k, p, q) row."""
    if k == 0 and p == 0 and q == 0:
        top = data.max_level()
        dims = [len(data.components(r)) for r in range(1, top + 1)]
        mats = [coboundary_h0(data, r) for r in range(1, top)]
        return mats, dims
    if p + q != k:
        raise SncDataError(f"Hodge piece ({p},{q}) does not lie in degree {k}")
    key = (k, p, q)
    if key not in data.user_maps:
        raise SncDataError(
            f"no restriction matrices supplied for degree {k}, piece ({p},{q}); "
            "the row cannot be computed"
        )
    mats = [list(m) for m in data.user_maps[key]]
    dims = [data._piece_dim(r, p, q) for r in range(1, len(mats) + 2)]
    return mats, dims


def weight_graded_dims(data: SncComplexData, k: int, l: int, p: int, q: int) -> int:
    """Dimension of the (p,q) piece of Gr^W_k H^{k+l}(D).

    Computed as dim ker(delta_{l+1}) - rank(delta_l) at the spot H^k(D(l+1))
    of the weight complex; delta_0 = 0 and maps past the chain are zero.
    """
    data.check_valid()
    if l < 0:
        raise SncDataError("l must be nonnegative")
    mats, dims = _row_maps_and_dims(data, k, p, q)
    if l >= len(dims):
        return 0
    spot_dim = dims[l]
    rank_out = exact_rank(mats[l], spot_dim) if l < len(mats) else 0
    rank_in = exact_rank(mats[l - 1], dims[l - 1]) if l >= 1 else 0
    return (spot_dim - rank_out) - rank_in


def purity_consequence_check(data: SncComplexData, n: int, s: int) -> Dict[str, object]:
    """Exactness of the weight rows in degrees k >= n + s.

    For each supplied row with k >= n + s, the complex must be exact except
    at the first spot; when it is, the surviving dimension there equals the
    alternating sum of the row's space dimensions, reported as h^{p,q}(D).
    """
    data.check_valid()
    rows = {}
    for (k, p, q) in sorted(data.user_maps):
        if k < n + s:
            continue
        _, dims = _row_maps_and_dims(data, k, p, q)
        spots = [(l, weight_graded_dims(data, k, l, p, q)) for l in range(1, len(dims))]
        failing = [(l, dim) for l, dim in spots if dim != 0]
        entry: Dict[str, object] = {"exact": not failing, "failing_spots": failing}
        if not failing:
            entry["h_pq_D"] = sum(
                (-1) ** i * dims[i] for i in range(len(dims))
            )
        rows[(k, p, q)] = entry
    return {
        "threshold": n + s,
        "rows": rows,
        "all_exact": all(row["exact"] for row in rows.values()),
    }
