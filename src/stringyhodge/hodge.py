"""Hodge diamonds of smooth projective varieties and their E-polynomials.

A diamond may describe a disconnected variety: entries are summed over
connected components and h^{0,0} records the number of components.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

from .polyalg import BivariatePoly


class DiamondError(ValueError):
    """Raised when an operation receives an invalid Hodge diamond."""


class _ValidOnce:
    """Immutable data that keeps a successful validation, never a failure.

    `validate()` returns its problems through `_kept`; `check_valid()` raises
    the class's `_error` with them joined, until one validation finds none.
    """

    _valid = False
    _error = ValueError

    def _kept(self, problems: List[str]) -> List[str]:
        if not problems:
            object.__setattr__(self, "_valid", True)
        return problems

    def check_valid(self) -> None:
        if self._valid:
            return
        problems = self.validate()
        if problems:
            raise self._error("; ".join(problems))

    def _read(self, name: str, kind: type):
        """kind(field `name`); a value kind cannot read (None, say) raises `_error`."""
        try:
            return kind(getattr(self, name))
        except (TypeError, ValueError):
            raise self._error(f"{name} {getattr(self, name)!r} is not a {kind.__name__}") from None


class HodgeDiamond:
    """Table h^{p,q}, 0 <= p, q <= dim, for a smooth projective variety,
    keyed by pairs (p, q) of ints (a bool is no int, as for the entries).

    An immutable value: `h` is a read-only mapping that holds no zero entry,
    neither field can be reassigned, and two diamonds are equal, and hash
    alike, when their dim and entries are.  So one object may stand for
    every stratum with the same diamond and keep one verdict (`_verdict`).
    """

    __slots__ = ("dim", "h", "_verdicts")

    def __init__(self, dim: int, h: Optional[Mapping[Tuple[int, int], int]] = None):
        if type(dim) is not int:  # bool included, as for the entries
            raise DiamondError(f"dimension {dim!r} is not an integer")
        if dim < 0:
            raise DiamondError("dimension must be nonnegative")
        if h is not None and not isinstance(h, Mapping):
            raise DiamondError(f"h = {h!r} is not a mapping of pairs (p, q) to integers")
        table: Dict[Tuple[int, int], int] = {}
        if h:
            for pq, n in h.items():
                if not (type(pq) is tuple and len(pq) == 2 and type(pq[0]) is type(pq[1]) is int):
                    raise DiamondError(f"key {pq!r} is not a pair (p, q) of integers")
                p, q = pq
                if type(n) is not int:  # bool included, as in the loader
                    raise DiamondError(f"h^{{{p},{q}}} = {n!r} is not an integer")
                if not (0 <= p <= dim and 0 <= q <= dim):
                    raise DiamondError(f"h^{{{p},{q}}} outside the {dim}-dimensional range")
                if n:
                    table[(p, q)] = n
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "h", MappingProxyType(table))
        object.__setattr__(self, "_verdicts", [None, None])  # by smooth_projective

    @classmethod
    def _trusted(cls, dim: int, h: Dict[Tuple[int, int], int]) -> "HodgeDiamond":
        """A diamond of `h` as it is, not copied or checked, so the caller must
        not write `h` after; the loader's tables are in range and zero-free."""
        diamond = object.__new__(cls)
        object.__setattr__(diamond, "dim", dim)
        object.__setattr__(diamond, "h", MappingProxyType(h))
        object.__setattr__(diamond, "_verdicts", [None, None])
        return diamond

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"HodgeDiamond is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"HodgeDiamond is immutable: cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle rebuild the value, to be scanned anew
        return (HodgeDiamond, (self.dim, dict(self.h)))

    def hpq(self, p: int, q: int) -> int:
        """h^{p,q}, with 0 outside the stored range."""
        return self.h.get((p, q), 0)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, HodgeDiamond)
            and self.dim == other.dim
            and self.h == other.h
        )

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.h.items())))

    def __repr__(self) -> str:
        return f"HodgeDiamond(dim={self.dim}, h={dict(self.h)!r})"

    def __add__(self, other: "HodgeDiamond") -> "HodgeDiamond":
        """Disjoint union: entrywise sum, same dimension."""
        return _union([self, other])

    def __mul__(self, copies: int) -> "HodgeDiamond":
        if copies < 0:
            raise DiamondError("copy count must be nonnegative")
        return HodgeDiamond(self.dim, {k: copies * n for k, n in self.h.items()})

    __rmul__ = __mul__


def _union(diamonds: List[HodgeDiamond]) -> HodgeDiamond:
    """Disjoint union of diamonds of one dimension, summed entrywise at once."""
    dim = diamonds[0].dim
    table: Dict[Tuple[int, int], int] = {}
    for d in diamonds:
        if d.dim != dim:
            raise DiamondError("disjoint union requires equal dimensions")
        for pq, n in d.h.items():
            table[pq] = table.get(pq, 0) + n
    return HodgeDiamond(dim, table)


def validate(d: HodgeDiamond, smooth_projective: bool = False) -> List[str]:
    """List of violated invariants; empty iff valid under the requested flag.

    `smooth_projective` enforces Poincare duality for a possibly disconnected
    variety.  The list is a fresh copy of the verdict the diamond keeps.
    """
    return list(_verdict(d, smooth_projective))


def _verdict(d: HodgeDiamond, smooth_projective: bool = False) -> List[str]:
    """`validate`'s list itself, which its readers must not write: each diamond
    is scanned on the first read for each flag, and the list kept on it.  A
    value that is no diamond gets the one problem that says so."""
    try:
        found = d._verdicts[smooth_projective]
    except AttributeError:
        return [f"{d!r} is not a HodgeDiamond"]
    if found is None:
        n_dim, h = d.dim, d.h
        if smooth_projective:  # duality and h^{0,0} >= 1 on top of the plain scan
            problems = _verdict(d) + [
                f"Poincare duality broken: h^{{{p},{q}}} = {n} "
                f"but h^{{{n_dim - p},{n_dim - q}}} = {h.get((n_dim - p, n_dim - q), 0)}"
                for (p, q), n in h.items()
                if n != h.get((n_dim - p, n_dim - q), 0)
            ]
            if h.get((0, 0), 0) < 1:
                problems.append("h^{0,0} must count at least one component")
        else:
            problems = []
            for (p, q), n in h.items():
                if n < 0:
                    problems.append(f"negative entry h^{{{p},{q}}} = {n}")
                if n != h.get((q, p), 0):
                    problems.append(
                        f"conjugation symmetry broken: h^{{{p},{q}}} = {n} "
                        f"but h^{{{q},{p}}} = {h.get((q, p), 0)}"
                    )
        found = d._verdicts[smooth_projective] = sorted(set(problems)) if problems else problems
    return found


def _signed(table: Mapping[Tuple[int, int], int], odd: int = 0) -> Dict[Tuple[int, int], int]:
    """Each entry h^{p,q} times (-1)^{p+q+odd}: the one home of the Hodge-Deligne sign."""
    return {(p, q): (-1) ** (p + q + odd) * n for (p, q), n in table.items()}


def e_polynomial(d: HodgeDiamond) -> BivariatePoly:
    """Hodge-Deligne polynomial sum (-1)^{p+q} h^{p,q} u^p v^q of a diamond;
    a DiamondError names every problem `validate` finds."""
    if _verdict(d):
        raise DiamondError("; ".join(_verdict(d)))
    return BivariatePoly(_signed(d.h))


def kunneth(a: HodgeDiamond, b: HodgeDiamond) -> HodgeDiamond:
    """Diamond of a product variety: convolution of the factors' tables."""
    return HodgeDiamond(a.dim + b.dim, (BivariatePoly(a.h) * BivariatePoly(b.h)).terms)


def projective_space(n: int) -> HodgeDiamond:
    return HodgeDiamond(n, {(p, p): 1 for p in range(n + 1)})


def curve(genus: int) -> HodgeDiamond:
    if genus < 0:
        raise DiamondError("genus must be nonnegative")
    return HodgeDiamond(1, {(0, 0): 1, (1, 0): genus, (0, 1): genus, (1, 1): 1})


def quadric_surface() -> HodgeDiamond:
    """P^1 x P^1."""
    return kunneth(projective_space(1), projective_space(1))

