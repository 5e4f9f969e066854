"""Seeded input families and the call batch of each benchmark workload.

Every descriptor is drawn from a fixed, indexable pool: pool entry `i` of a
family is generated from its own `random.Random` stream, so it is the same in
every run, and `reference.json` can hold its outputs.  The workload seed only
chooses which pool entries a run uses and in which order they are called.
simplex and snc are sampled per shape and small_batch per slice of cost, so
every seed gives a batch of the same mix and the run-to-run figures stay
comparable.

The descriptors are written as JSON files; the library only ever sees those
files.  Nothing here imports the package under test: the expected values used
by the independent checks come from the generated data alone.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Dict, List, Optional, Tuple

Diamond = Dict[Tuple[int, int], int]

# A run of S seconds uses S / ROUND_S[workload] pool entries of each shape
# (simplex, snc) or S / SMALL_S small descriptors (small_batch): the
# reference-speed seconds one entry of each shape, or one small descriptor,
# takes.  Each pool entry is used at most once in a run, so that no call is
# repeated.  Each family's pool has POOL_PER_SHAPE entries per shape.  Entry
# 0 of every shape is left out of the batches: entry 0 of shape 0, or the
# cheapest small descriptor, is the input of the untimed warm-up call.
ROUND_S = {"simplex": 2.6, "snc": 1.5}
SMALL_S = 0.0049
POOL_PER_SHAPE = 24

# simplex: (n, k) shapes.
SIMPLEX_SHAPES = ((3, 8), (3, 10), (4, 8), (4, 10))

# small_batch: descriptors shaped like the test suite's random_descriptor.
SMALL_POOL = 8192

# snc: (k, L) shapes, the dual complex being the (L-1)-skeleton of a
# (k-1)-simplex.  Calls cluster by shape and kind, and a single call's
# latency varies by about 10% on a shared machine, so a median taken in a
# gap between two clusters, or inside a small one, moves from run to run.
# The batch is therefore mostly (7, 3): its compute calls, the median's
# cluster, are as many as the cheaper calls of (5, 3) and (5, 4) below them
# and the dearer (7, 3) purity calls above them, and the 11th slowest call,
# which call_tail_ms reports, falls inside the purity calls.
SNC_SHAPES = ((5, 3), (5, 4), (7, 3), (7, 3), (7, 3), (7, 3))

CORPUS_FIBERS = ("fiber_node.json", "fiber_p2.json", "fiber_two_quadrics.json")
NODE_PAIR = ("node3fold_blowup.json", "node3fold_small.json")

WORKLOADS = ("simplex", "small_batch", "snc")


@dataclass
class Call:
    """One benchmark call.

    kind is a CLI command name or a library call name; `ref` names the
    reference digest in reference.json; `expect` holds what the independent
    checks in checks.py compare the output with.
    """

    ref: str
    kind: str
    paths: Tuple[str, ...]
    expect: Dict[str, object] = field(default_factory=dict)

    def argv(self) -> List[str]:
        return [self.kind, *self.paths, "--format", "machine"]


# ---------------------------------------------------------------- diamonds


def _orbits(m: int) -> List[List[Tuple[int, int]]]:
    """(p,q) orbits under conjugation and Poincare duality in dimension m."""
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


def pd_diamond(rng: random.Random, dim: int, connected: bool = False,
               fixed: Optional[Diamond] = None, low: int = 0) -> Diamond:
    """Random diamond with conjugation symmetry and Poincare duality.

    Free entries are drawn from low..4; entries named in `fixed` keep their
    value (with their whole orbit).
    """
    pieces = 1 if connected else rng.randint(1, 3)
    fixed = dict(fixed or {})
    fixed.setdefault((0, 0), pieces)
    h: Diamond = {}
    for orbit in _orbits(dim):
        pinned = [fixed[key] for key in orbit if key in fixed]
        value = pinned[0] if pinned else rng.randint(low, 4)
        for key in orbit:
            h[key] = value
    return {key: v for key, v in h.items() if v}


def _diamond_json(h: Diamond) -> Dict[str, int]:
    return {f"{p},{q}": v for (p, q), v in sorted(h.items())}


def _descriptor_json(n: int, label: str, components, strata) -> Dict[str, object]:
    return {
        "dim": n,
        "label": label,
        "components": [{"id": cid, "discrepancy": a} for cid, a in components],
        "strata": {",".join(J): _diamond_json(h) for J, h in sorted(strata.items())},
    }


def _write(path: Path, doc: Dict[str, object]) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------- simplex


def simplex_entry(shape: int, index: int):
    """Full-simplex descriptor: every subset of at most n components is a stratum.

    The cost of a call depends on the shape, on the multiset of
    discrepancies and on which Hodge numbers are nonzero.  So that entries of
    one shape cost alike, the discrepancies 1, 2, 3 are dealt out in turn and
    shuffled, and every diamond entry allowed by the dimension is nonzero.
    """
    n, k = SIMPLEX_SHAPES[shape]
    rng = random.Random(f"simplex:{shape}:{index}")
    ids = [f"E{i}" for i in range(k)]
    discrepancies = [1 + i % 3 for i in range(k)]
    rng.shuffle(discrepancies)
    components = list(zip(ids, discrepancies))
    strata = {(): pd_diamond(rng, n, connected=True, low=1)}
    for size in range(1, n + 1):
        for J in itertools.combinations(ids, size):
            strata[J] = pd_diamond(rng, n - size, low=1)
    return n, components, strata, rng


def _write_simplex(workdir: Path, shape: int, index: int) -> List[Call]:
    n, components, strata, rng = simplex_entry(shape, index)
    name = f"simplex-{shape}-{index}"
    base = workdir / f"{name}.json"
    _write(base, _descriptor_json(n, name, components, strata))

    # Relabelled copy: the ids are permuted, so strata keys re-sort.  The
    # components keep their order, so that assembly multiplies the same
    # factors in the same order and the call costs what the original does.
    new_ids = [f"R{i:02d}" for i in range(len(components))]
    rng.shuffle(new_ids)
    rename = {cid: new for (cid, _), new in zip(components, new_ids)}
    relabelled = [(rename[cid], a) for cid, a in components]
    rel_strata = {tuple(sorted(rename[c] for c in J)): h for J, h in strata.items()}
    rel = workdir / f"{name}-relabelled.json"
    _write(rel, _descriptor_json(n, name + " relabelled", relabelled, rel_strata))

    # Perturbed copy: ambient h^{1,1} and h^{n-1,n-1} raised by one.
    ambient = dict(strata[()])
    for key in ((1, 1), (n - 1, n - 1)):
        ambient[key] = ambient.get(key, 0) + 1
    pert = workdir / f"{name}-perturbed.json"
    _write(pert, _descriptor_json(n, name + " perturbed", components,
                                  {**strata, (): ambient}))

    hp0 = {p: strata[()].get((p, 0), 0) for p in range(2 * n + 1)}
    ref = f"simplex/{shape}/{index}"
    return [
        Call(f"{ref}/compute", "compute", (str(base),), {"h_p0": hp0}),
        Call(f"{ref}/check", "check", (str(base),)),
        Call(f"{ref}/compare-relabelled", "compare", (str(base), str(rel)),
             {"equal": True}),
        Call(f"{ref}/compare-perturbed", "compare", (str(base), str(pert)),
             {"equal": False, "first_difference": (1, 1, 1)}),
    ]


# ------------------------------------------------------------- small_batch


def small_entry(index: int):
    """Counterpart of the test suite's random_descriptor (n 2-4, <= 5 components)."""
    rng = random.Random(f"small:{index}")
    n = rng.randint(2, 4)
    ncomp = rng.randint(0, 5)
    ids = [f"D{i}" for i in range(ncomp)]
    components = [(cid, rng.randint(0, 3)) for cid in ids]
    candidates = [
        J for size in range(1, min(n, ncomp) + 1) for J in itertools.combinations(ids, size)
    ]
    family = set()
    for J in rng.sample(candidates, min(len(candidates), rng.randint(0, 4))):
        for size in range(1, len(J) + 1):
            family.update(itertools.combinations(J, size))
    strata = {(): pd_diamond(rng, n, connected=True)}
    for J in sorted(family):
        strata[J] = pd_diamond(rng, n - len(J))
    return n, components, strata


def small_cost(index: int) -> Tuple[int, int]:
    """Cost proxy of a small pool entry.

    Diamond entries over the strata that contribute to E_st, times one plus
    the number of components with positive discrepancy; its rank correlation
    with measured call time is 0.95.
    """
    n, components, strata = small_entry(index)
    disc = dict(components)
    terms = sum(len(h) for J, h in strata.items() if all(disc[c] >= 1 for c in J))
    positive = sum(1 for a in disc.values() if a >= 1)
    return terms * (1 + positive), index


def corpus_calls(workdir: Path, corpus: Path) -> List[Call]:
    calls = []
    for src in sorted(corpus.glob("*.json")):
        dst = workdir / src.name
        shutil.copyfile(src, dst)
        ref = f"corpus/{src.stem}"
        expect: Dict[str, object] = {}
        if src.name == "burkhardt_x0.json":
            expect = {"h_st": {"1,1": 16}}
        elif src.name == "burkhardt_times_p1.json":
            expect = {"h_st": {"2,2": 32}}
        calls.append(Call(f"{ref}/compute", "compute", (str(dst),), expect))
        calls.append(Call(f"{ref}/check", "check", (str(dst),)))
        if src.name in CORPUS_FIBERS:
            calls.append(Call(f"{ref}/defect", "defect", (str(dst),)))
    pair = tuple(str(workdir / name) for name in NODE_PAIR)
    calls.append(Call("corpus/node3fold/compare", "compare", pair, {"equal": True}))
    calls.append(Call("corpus/burkhardt_x0/a_pq", "a_pq", (str(workdir / "burkhardt_x0.json"),),
                      {"value": -29}))
    return calls


# --------------------------------------------------------------------- snc


def snc_entry(shape: int, index: int) -> Tuple[int, int, Dict[str, object]]:
    """SNC descriptor whose dual complex is the (L-1)-skeleton of a (k-1)-simplex.

    Level r holds one connected component per r-subset of the k divisors.
    Every component has h^{1,1} = 1, so the (2,1,1) user maps are the Cech
    coboundaries of the same complex as the H^0 row.  The resolution part is
    one stratum (the ambient variety) with no exceptional components.
    """
    k, L = SNC_SHAPES[shape]
    n = L + 1
    rng = random.Random(f"snc:{shape}:{index}")
    ids = [f"S{i}" for i in range(k)]
    levels: Dict[str, list] = {}
    index_of: Dict[Tuple[str, ...], int] = {}
    for r in range(1, L + 1):
        comps = []
        for pos, subset in enumerate(itertools.combinations(ids, r)):
            index_of[subset] = pos
            comp: Dict[str, object] = {
                "subset": list(subset),
                "diamond": _diamond_json(
                    pd_diamond(rng, n - r, connected=True, fixed={(1, 1): 1})
                ),
            }
            if r >= 2:
                comp["faces"] = [index_of[subset[:t] + subset[t + 1:]] for t in range(r)]
            comps.append(comp)
        levels[str(r)] = comps
    maps = []
    for r in range(1, L):
        below = levels[str(r)]
        rows = []
        for comp in levels[str(r + 1)]:
            row = ["0"] * len(below)
            for t, fidx in enumerate(comp["faces"]):
                row[fidx] = "1" if t % 2 == 0 else "-1"
            rows.append(row)
        maps.append(rows)
    doc = _descriptor_json(n, f"snc-{shape}-{index}", [],
                           {(): pd_diamond(rng, n, connected=True)})
    doc["snc"] = {"levels": levels, "user_maps": {"2,1,1": maps}}
    return k, L, doc


def _write_snc(workdir: Path, shape: int, index: int) -> List[Call]:
    k, L, doc = snc_entry(shape, index)
    path = workdir / f"snc-{shape}-{index}.json"
    _write(path, doc)
    # The (L-1)-skeleton of a (k-1)-simplex is a wedge of C(k-1, L) spheres
    # of dimension L-1, so the weight row is exact except at both ends.
    top = comb(k - 1, L)
    h0_dims = {str(l): 1 if l == 0 else (top if l == L - 1 else 0) for l in range(L)}
    ref = f"snc/{shape}/{index}"
    return [
        Call(f"{ref}/compute", "compute", (str(path),), {"snc_h0_weight_dims": h0_dims}),
        Call(f"{ref}/purity", "purity", (str(path),), {"failing_spots": [[L - 1, top]]}),
    ]


# ------------------------------------------------------------------ batches


def warmup_entry(workload: str, small_order: List[int]) -> Tuple[int, ...]:
    """The pool entry of the warm-up call: the cheapest small descriptor, or shape 0 entry 0."""
    return (small_order[0],) if workload == "small_batch" else (0, 0)


def batch_entries(workload: str, seed: int, seconds: float,
                  small_order: List[int]) -> List[Tuple[int, ...]]:
    """Pool entries a run of `workload` with `seed` uses, each once.

    small_order lists the small pool by cost (see record_reference.py); the
    small descriptors are one pick from each of consecutive slices of it, so
    that every batch has the same cost profile.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("simplex", "snc"):
        shapes = len(SIMPLEX_SHAPES if workload == "simplex" else SNC_SHAPES)
        count = min(POOL_PER_SHAPE - 1, max(1, round(seconds / ROUND_S[workload])))
        return [(s, i) for s in range(shapes)
                for i in rng.sample(range(1, POOL_PER_SHAPE), count)]
    if workload == "small_batch":
        pool = small_order[1:]
        count = min(len(pool), max(1, round(seconds / SMALL_S)))
        return [(rng.choice(pool[i * len(pool) // count:(i + 1) * len(pool) // count]),)
                for i in range(count)]
    raise ValueError(f"unknown workload {workload!r}")


def write_entry(workload: str, entry: Tuple[int, ...], workdir: Path) -> List[Call]:
    if workload == "simplex":
        return _write_simplex(workdir, *entry)
    if workload == "snc":
        return _write_snc(workdir, *entry)
    (index,) = entry
    n, components, strata = small_entry(index)
    path = workdir / f"small-{index}.json"
    _write(path, _descriptor_json(n, f"small-{index}", components, strata))
    return [
        Call(f"small/{index}/compute", "compute", (str(path),)),
        Call(f"small/{index}/check", "check", (str(path),)),
    ]


def build_batch(workload: str, seed: int, seconds: float, workdir: Path, corpus: Path,
                small_order: List[int]) -> Tuple[Call, List[Call]]:
    """Write the run's descriptor files into workdir; returns the warm-up call and the batch.

    The batch holds no call twice.  Its descriptors come in a seeded order,
    and the calls of one descriptor stay together.
    """
    warmup = write_entry(workload, warmup_entry(workload, small_order), workdir)[0]
    groups = [[call] for call in corpus_calls(workdir, corpus)] if workload == "small_batch" else []
    groups += [write_entry(workload, entry, workdir)
               for entry in batch_entries(workload, seed, seconds, small_order)]
    random.Random(f"{workload}:{seed}:order").shuffle(groups)
    return warmup, [call for group in groups for call in group]
