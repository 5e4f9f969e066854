"""Hodge diamonds of smooth projective varieties and their E-polynomials.

A diamond may describe a disconnected variety: entries are summed over
connected components and h^{0,0} records the number of components.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

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


class HodgeDiamond:
    """Table h^{p,q}, 0 <= p, q <= dim, for a smooth projective variety."""

    __slots__ = ("dim", "h")

    def __init__(self, dim: int, h: Optional[Mapping[Tuple[int, int], int]] = None):
        if dim < 0:
            raise DiamondError("dimension must be nonnegative")
        self.dim = dim
        self.h: Dict[Tuple[int, int], int] = {}
        if h:
            for (p, q), n in h.items():
                if n == 0:
                    continue
                if not (0 <= p <= dim and 0 <= q <= dim):
                    raise DiamondError(f"h^{{{p},{q}}} outside the {dim}-dimensional range")
                self.h[(p, q)] = n

    def hpq(self, p: int, q: int) -> int:
        """h^{p,q}, with 0 outside the stored range."""
        return self.h.get((p, q), 0)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HodgeDiamond)
            and self.dim == other.dim
            and self.h == other.h
        )

    def __repr__(self) -> str:
        return f"HodgeDiamond(dim={self.dim}, h={self.h!r})"

    def __add__(self, other: "HodgeDiamond") -> "HodgeDiamond":
        """Disjoint union: entrywise sum, same dimension."""
        if self.dim != other.dim:
            raise DiamondError("disjoint union requires equal dimensions")
        out = dict(self.h)
        for k, n in other.h.items():
            out[k] = out.get(k, 0) + n
        return HodgeDiamond(self.dim, out)

    def __mul__(self, copies: int) -> "HodgeDiamond":
        if copies < 0:
            raise DiamondError("copy count must be nonnegative")
        return HodgeDiamond(self.dim, {k: copies * n for k, n in self.h.items()})

    __rmul__ = __mul__


def validate(d: HodgeDiamond, smooth_projective: bool = False) -> List[str]:
    """List of violated invariants; empty iff valid under the requested flag.

    `smooth_projective` enforces Poincare duality for a possibly disconnected
    variety.
    """
    problems = []
    h = d.h
    for (p, q), n in h.items():
        if n < 0:
            problems.append(f"negative entry h^{{{p},{q}}} = {n}")
        if n != h.get((q, p), 0):
            problems.append(
                f"conjugation symmetry broken: h^{{{p},{q}}} = {n} "
                f"but h^{{{q},{p}}} = {h.get((q, p), 0)}"
            )
    if smooth_projective:
        problems += _duality_problems(d)
    return sorted(set(problems)) if problems else problems


def _duality_problems(d: HodgeDiamond) -> List[str]:
    """What `validate` adds for a smooth projective variety: duality and h^{0,0} >= 1."""
    n_dim, h = d.dim, d.h
    problems = [
        f"Poincare duality broken: h^{{{p},{q}}} = {n} "
        f"but h^{{{n_dim - p},{n_dim - q}}} = {h.get((n_dim - p, n_dim - q), 0)}"
        for (p, q), n in h.items()
        if n != h.get((n_dim - p, n_dim - q), 0)
    ]
    if h.get((0, 0), 0) < 1:
        problems.append("h^{0,0} must count at least one component")
    return problems


def e_polynomial(d: HodgeDiamond, check: bool = True) -> BivariatePoly:
    """Hodge-Deligne polynomial sum (-1)^{p+q} h^{p,q} u^p v^q."""
    if check:
        problems = validate(d)
        if problems:
            raise DiamondError("; ".join(problems))
    return BivariatePoly({(p, q): (-1) ** (p + q) * n for (p, q), n in d.h.items()})


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

