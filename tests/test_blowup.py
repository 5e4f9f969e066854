"""Independence of resolution: blowing up a stratum leaves E_st unchanged.

Batyrev, *Stringy Hodge numbers of varieties with Gorenstein canonical
singularities* (alg-geom/9711008): E_st does not depend on the log
resolution.  Blowing up Y along a stratum D_J gives another one, so the
assembly must give equal E-functions for the descriptor and its blow-up.
`blow_up` builds the blown-up descriptor from the Hodge diamonds alone and
shares no code with the assembly.
"""

import random

from stringyhodge import (
    HodgeDiamond,
    ResolutionDescriptor,
    kunneth,
    load_bundle,
    projective_space,
    stringy_e,
)
from conftest import CORPUS, random_descriptor


def shifted(h, i, dim):
    """h(D) * (uv)^i as a diamond of dimension dim: the class of D twisted up by i."""
    return HodgeDiamond(dim, {(p + i, q + i): n for (p, q), n in h.h.items()})


def blow_up(d, J):
    """The descriptor after blowing up Y along D_J, |J| >= 2, with new divisor F.

    - a_F = sum_{j in J} a_j + |J| - 1.
    - For I not containing J, with c = |J \\ I|, D'_I is D_I blown up along
      D_{I u J}, of codimension c in it: h(D'_I) = h(D_I) plus h(D_{I u J})
      shifted by (i, i) for 1 <= i < c.
    - F meets D'_I in a P^{c-1}-bundle over D_{I u J}.
    - Strata that contain all of J become empty.
    """
    a = dict(d.components)
    f = f"F({','.join(J)})"  # named after its center, so iterated blow-ups never clash
    components = d.components + ((f, sum(a[j] for j in J) + len(J) - 1),)
    strata = {}
    for I, h in d.strata.items():
        c = len(set(J) - set(I))
        if c == 0:
            continue
        base = d.strata.get(tuple(sorted(set(I) | set(J))))
        if base is None:
            strata[I] = h
            continue
        strata[I] = sum((shifted(base, i, h.dim) for i in range(1, c)), h)
        strata[tuple(sorted(I + (f,)))] = kunneth(base, projective_space(c - 1))
    return ResolutionDescriptor(d.n, components, strata, f"{d.label} blown up along {J}")


def centers(d):
    return [J for J in d.strata if len(J) >= 2]


def check_invariant(d, b):
    assert b.validate() == []
    assert stringy_e(d).equals(stringy_e(b))


def test_blow_up_random_descriptors():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        d = random_descriptor(rng)
        if not centers(d):
            continue
        b = blow_up(d, rng.choice(centers(d)))
        check_invariant(d, b)
        bb = blow_up(b, rng.choice(centers(b))) if centers(b) else b
        check_invariant(d, bb)
        checked += 1
    assert checked >= 100


def test_blow_up_corpus():
    checked = 0
    for path in sorted(CORPUS.glob("*.json")):
        d = load_bundle(path).descriptor
        for J in centers(d):
            b = blow_up(d, J)
            check_invariant(d, b)
            for J2 in centers(b):
                check_invariant(d, blow_up(b, J2))
            checked += 1
    assert checked >= 1


def test_blow_up_changes_the_descriptor():
    # two a = 1 divisors meeting in a line, blown up along that line
    q = kunneth(projective_space(1), projective_space(1))
    d = ResolutionDescriptor(
        3,
        (("A", 1), ("B", 1)),
        {(): projective_space(3), ("A",): q, ("B",): q, ("A", "B"): projective_space(1)},
    )
    b = blow_up(d, ("A", "B"))
    assert dict(b.components)["F(A,B)"] == 3
    assert ("A", "B") not in b.strata
    assert b.strata[("F(A,B)",)] == kunneth(projective_space(1), projective_space(1))
    assert b.strata[()].hpq(1, 1) == 2
    check_invariant(d, b)
