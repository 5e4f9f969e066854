"""Global quotients E^n/Z_r against Batyrev's orbifold formula.

G = Z_r acts on A = E^n by a primitive r-th root of unity on every factor
(r = 2 for any elliptic curve E, r = 3 for E = C/Z[rho]), with r | n so that
the quotient is Gorenstein.  Every g != 1 fixes the same N points (N = 4^n
for r = 2, 3^n for r = 3), and g^j has age jn/r there, so

    E_st(A/G) = E(A)^G + N * sum_{j=1}^{r-1} (uv)^{jn/r}

(Batyrev-Dais, Topology 1996), where E(A)^G has h^{p,q} = C(n,p) C(n,q) for
p = q mod r.  The formula reads no strata, and it gives entries off the
diagonal (h^{p,0}_st != 0) and one stratum that stands for thousands of
disjoint pieces.  The expected tables are built from it, never from the
package.
"""

import json
from math import comb

import pytest

from stringyhodge import conjecture_report, stringy_hodge_table
from stringyhodge.descriptors import parse_bundle
from stringyhodge.cli import main

CASES = [(3, 3), (4, 2), (6, 2), (6, 3), (8, 2), (9, 3)]


def fixed_points(n, r):
    return {2: 4, 3: 3}[r] ** n


def invariant_part(n, r):
    """h^{p,q} of E(A)^G: C(n,p) C(n,q) for p = q mod r, else 0."""
    return {(p, q): comb(n, p) * comb(n, q)
            for p in range(n + 1) for q in range(n + 1) if (p - q) % r == 0}


def orbifold_table(n, r):
    """h^{p,q}_st of A/G: E(A)^G plus N (uv)^{jn/r} for j = 1, ..., r - 1."""
    table = invariant_part(n, r)
    for j in range(1, r):
        table[j * n // r, j * n // r] += fixed_points(n, r)
    return table


def diamond_json(table):
    return {f"{p},{q}": c for (p, q), c in sorted(table.items())}


def blown_up(n, r):
    """Y, A/G blown up at its N points: one component, N disjoint P^{n-1} with
    discrepancy n/r - 1, and h(Y) = E(A)^G - N [pt] + N [P^{n-1}]."""
    points = fixed_points(n, r)
    y = invariant_part(n, r)
    for p in range(1, n):
        y[p, p] += points
    return {
        "dim": n,
        "label": f"E^{n}/Z_{r} blown up at its {points} fixed points",
        "components": [{"id": "E", "discrepancy": n // r - 1}],
        "strata": {"": diamond_json(y), "E": {f"{p},{p}": points for p in range(n)}},
    }


def orbifold(n, r):
    """A component-free descriptor whose Y is the orbifold diamond."""
    return {"dim": n, "label": f"E^{n}/Z_{r}", "strata": {"": diamond_json(orbifold_table(n, r))}}


@pytest.mark.parametrize("n, r", CASES)
def test_the_resolution_gives_the_orbifold_table(n, r):
    table = stringy_hodge_table(parse_bundle(blown_up(n, r)).descriptor).h_st_table()
    assert {pq: c for pq, c in table.items() if c} == orbifold_table(n, r)


@pytest.mark.parametrize("n, r", CASES)
def test_compare_with_the_orbifold_diamond_is_equal(n, r, tmp_path, capsys):
    paths = []
    for name, doc in (("resolved", blown_up(n, r)), ("orbifold", orbifold(n, r))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    assert main(["compare", *map(str, paths)]) == 0
    assert "EQUAL" in capsys.readouterr().out


@pytest.mark.parametrize("n, r", CASES)
def test_every_entry_is_nonnegative(n, r):
    assert conjecture_report(parse_bundle(blown_up(n, r)).descriptor).all_nonnegative()


def test_off_diagonal_and_many_point_values():
    # E^6/Z_3: a = 1 on 729 points, h^{3,0}_st = C(6,3) off the diagonal and
    # h^{2,2}_st = C(6,2)^2 + 729
    table = stringy_hodge_table(parse_bundle(blown_up(6, 3)).descriptor).h_st_table()
    assert (table[3, 0], table[2, 2]) == (20, 954)
