import itertools
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import strategies as st

from stringyhodge import (
    BivariatePoly, DescriptorError, HodgeDiamond, ResolutionDescriptor, closed_form_h, hodge,
    stringy_hodge_table,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def corpus():
    return CORPUS


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name and returns its call counter."""

    def install(owner, name):
        calls = Counter()
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install


@pytest.fixture
def count_scans(monkeypatch):
    """count_scans() wraps hodge._verdict and returns its counter of diamond
    scans by flag: a read scans when the diamond keeps no verdict for it yet."""

    def install():
        scans = Counter()
        verdict = hodge._verdict

        def counted(d, smooth_projective=False):
            scans[smooth_projective] += d._verdicts[smooth_projective] is None
            return verdict(d, smooth_projective)

        monkeypatch.setattr(hodge, "_verdict", counted)
        return scans

    return install


def _wclean(p):
    return {e: c for e, c in p.items() if c != 0}


def w_mul(a, b, bound=None):
    """Product of sparse w-polynomials, optionally truncated after w^bound."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if bound is not None and e > bound:
                continue
            out[e] = out.get(e, 0) + c1 * c2
    return _wclean(out)


def expand_w(spec):
    """prod (w^m - 1) over a DenominatorSpec, as a sparse {exponent: coefficient}."""
    out = {0: 1}
    for m in spec.factors:
        out = w_mul(out, {m: 1, 0: -1})
    return out


def from_w(p):
    """The sparse w-polynomial p as a BivariatePoly in u and v."""
    return BivariatePoly({(e, e): c for e, c in p.items()})


def cross_multiplied_equal(f, g):
    """f == g decided by multiplying each numerator by the other's full denominator."""
    left = f.numerator * from_w(expand_w(g.denominator))
    right = g.numerator * from_w(expand_w(f.denominator))
    return left == right


def diag(*vals):
    """Diamond supported on the diagonal: diag(1, 2, 1) is h^{p,p} = 1, 2, 1."""
    return HodgeDiamond(len(vals) - 1, {(i, i): v for i, v in enumerate(vals)})


def _orbits(m):
    """Orbits of (p,q) under conjugation and Poincare duality in dimension m."""
    seen = set()
    out = []
    for p in range(m + 1):
        for q in range(m + 1):
            if (p, q) in seen:
                continue
            orbit = {(p, q), (q, p), (m - p, m - q), (m - q, m - p)}
            seen |= orbit
            out.append(sorted(orbit))
    return out


@st.composite
def pd_diamonds(draw, dim, connected=False):
    """Random diamond satisfying conjugation symmetry and Poincare duality."""
    components = 1 if connected else draw(st.integers(1, 3))
    h = {}
    for orbit in _orbits(dim):
        if (0, 0) in orbit:
            value = components
        else:
            value = draw(st.integers(0, 4))
        for key in orbit:
            h[key] = value
    return HodgeDiamond(dim, h)


def random_pd_diamond(rng, dim, connected=False):
    components = 1 if connected else rng.randint(1, 3)
    h = {}
    for orbit in _orbits(dim):
        value = components if (0, 0) in orbit else rng.randint(0, 4)
        for key in orbit:
            h[key] = value
    return HodgeDiamond(dim, h)


def random_descriptor(rng, min_discrepancy=0, max_dim=4, max_components=5):
    """Deterministic counterpart of the hypothesis strategy below."""
    n = rng.randint(2, max_dim)
    ncomp = rng.randint(0, max_components)
    ids = [f"D{i}" for i in range(ncomp)]
    discs = tuple((cid, rng.randint(min_discrepancy, 3)) for cid in ids)
    candidates = [
        J
        for size in range(1, min(n, ncomp) + 1)
        for J in itertools.combinations(ids, size)
    ]
    family = set()
    for J in rng.sample(candidates, min(len(candidates), rng.randint(0, 4))):
        for size in range(1, len(J) + 1):
            family.update(itertools.combinations(J, size))
    strata = {(): random_pd_diamond(rng, n, connected=True)}
    for J in sorted(family):
        strata[J] = random_pd_diamond(rng, n - len(J))
    d = ResolutionDescriptor(n=n, components=discs, strata=strata, label="random")
    assert not d.validate()
    return d


@st.composite
def descriptors(draw, min_discrepancy=0, max_dim=4, max_components=5):
    """Random valid resolution descriptor with PD-consistent strata."""
    n = draw(st.integers(2, max_dim))
    ncomp = draw(st.integers(0, max_components))
    ids = [f"D{i}" for i in range(ncomp)]
    discs = tuple(
        (cid, draw(st.integers(min_discrepancy, 3))) for cid in ids
    )
    candidates = [
        J
        for size in range(1, min(n, ncomp) + 1)
        for J in itertools.combinations(ids, size)
    ]
    maximal = (
        draw(st.lists(st.sampled_from(candidates), max_size=4, unique=True))
        if candidates
        else []
    )
    family = set()
    for J in maximal:
        for size in range(1, len(J) + 1):
            family.update(itertools.combinations(J, size))
    strata = {(): draw(pd_diamonds(n, connected=True))}
    for J in sorted(family):
        strata[J] = draw(pd_diamonds(n - len(J)))
    d = ResolutionDescriptor(n=n, components=discs, strata=strata, label="random")
    assert not d.validate()
    return d


def f_coefficient(m, t):
    """Coefficient of w^t, t >= 1, in f_m(w) = (w - w^m)/(w^m - 1) = -w + w^m - w^{m+1} + ...:
    [m | t] - [t = 1 mod m].  Both brackets hold for m = 1, so f_1 = 0."""
    return (t % m == 0) - (t % m == 1 % m)


@lru_cache(maxsize=None)
def stratum_weights(signature, top):
    """g(0), ..., g(top): the coefficients of prod_{m in signature} f_m(w)."""
    g = (1,) + (0,) * top
    for m in signature:
        g = tuple(sum(g[k - t] * f_coefficient(m, t) for t in range(1, k + 1))
                  for k in range(top + 1))
    return g


def stratum_sum_table(d, bound):
    """The nonzero h^{p,q}_st with p + q <= bound from Batyrev's sum expanded at
    w = uv = 0 one stratum at a time:

        h^{p,q}_st = sum_J sum_{k >= |J|} g_J(k) h^{p-k,q-k}(D_J),

    g_J(k) the coefficient of w^k in prod_{j in J} f_{a_j+1}(w), read from
    d.strata and d.components alone: no signature table, no common
    denominator, no series recurrence and no division."""
    m_of = {cid: a + 1 for cid, a in d.components}
    table = Counter()
    for J, diamond in d.strata.items():
        g = stratum_weights(tuple(sorted(m_of[cid] for cid in J)), bound // 2)
        for (i, j), h in diamond.h.items():
            for k in range(len(J), (bound - i - j) // 2 + 1):
                table[i + k, j + k] += g[k] * h
    return {pq: c for pq, c in table.items() if c}


def assert_matches_the_stratum_sum(d):
    """Every entry p + q <= 2n + 4 of stringy_hodge_table and every closed form
    (q = 0, and q = 1, 2 on terminal input) equal the stratum-wise sum; on other
    input closed_form_h refuses q = 1, 2."""
    bound = 2 * d.n + 4
    expected = stratum_sum_table(d, bound)
    table = stringy_hodge_table(d, bound).h_st_table()
    assert {pq: c for pq, c in table.items() if c} == expected
    terminal = all(a >= 1 for _, a in d.components)
    for p in range(-1, bound - 1):
        for q in (0, 1, 2):
            if q == 0 or terminal:
                assert closed_form_h(d, p, q) == expected.get((p, q), 0)
            else:
                with pytest.raises(DescriptorError, match="discrepancies >= 1"):
                    closed_form_h(d, p, q)
