"""JSON descriptor files: loading and validation.

One file describes one variety: ambient dimension, exceptional components
with discrepancies, stratum Hodge diamonds, and optional SNC incidence and
per-point fiber blocks.  Rationals are encoded as "num/den" strings so no
floating point ever appears on the wire.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .analysis import ExceptionalFiberDescriptor, FiberComponent
from .hodge import HodgeDiamond
from .sncweights import SncComplexData, SncComponent
from .stringy import ResolutionDescriptor


class DescriptorFileError(ValueError):
    """Raised on malformed descriptor files, with a key-path location."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass(frozen=True)
class DescriptorBundle:
    descriptor: ResolutionDescriptor
    snc: Optional[SncComplexData] = None
    fibers: Tuple[ExceptionalFiberDescriptor, ...] = ()


def _expect(cond: bool, location: str, message: str) -> None:
    if not cond:
        raise DescriptorFileError(location, message)


def _parse_diamond(obj, dim: int, location: str,
                   keys: Dict[str, Tuple[int, int]]) -> HodgeDiamond:
    # each entry is checked once, here, and its key path is spelled out only
    # to raise; JSON true/false load as bool, a subclass of int, so integers
    # are tested with `type(value) is int`.  `keys` holds the (p,q) of every
    # well-formed sparse key met so far in the document, so that each
    # spelling is parsed once
    h: Dict[Tuple[int, int], int] = {}
    if isinstance(obj, list):
        _expect(len(obj) == dim + 1, location, f"dense matrix must have {dim + 1} rows")
        for p, row in enumerate(obj):
            _expect(isinstance(row, list) and len(row) == dim + 1, f"{location}[{p}]",
                    f"dense matrix row must have {dim + 1} entries")
            for q, value in enumerate(row):
                if type(value) is not int:
                    raise DescriptorFileError(f"{location}[{p}][{q}]", "entries must be integers")
                if value:
                    h[(p, q)] = value
    elif isinstance(obj, dict):
        for key, value in obj.items():
            pq = keys.get(key)
            if pq is None:
                left, _, right = key.partition(",")
                if left.strip().isdecimal() and right.strip().isdecimal():
                    pq = keys[key] = (int(left), int(right))
            if pq is None:
                problem = 'sparse keys must look like "p,q"'
            elif type(value) is not int:
                problem = "entries must be integers"
            elif pq[0] > dim or pq[1] > dim:
                problem = f"(p,q) outside the {dim}-dimensional range"
            else:
                if value:
                    h[pq] = value
                continue
            raise DescriptorFileError(f"{location}[{key!r}]", problem)
        if len(h) < len(obj):  # zeros were dropped, or two keys name the same (p,q)
            pqs = [keys[key] for key in obj]
            for i, key in enumerate(obj):
                _expect(pqs[i] not in pqs[:i], f"{location}[{key!r}]",
                        f"repeats an earlier (p,q) = {pqs[i]}")
    else:
        raise DescriptorFileError(location, "diamond must be a dense matrix or a sparse map")
    # only an empty [] or {} gets here with dim < 0: the stratum itself must be empty
    _expect(dim >= 0, location, f"dimension would be {dim}; an empty stratum has no diamond")
    diamond = HodgeDiamond(dim)
    diamond.h = h  # in range and free of zeros already
    return diamond


def _parse_component(comp, loc: str) -> Tuple[str, int]:
    """The id and discrepancy of one component object."""
    _expect(isinstance(comp, dict), loc, "component must be an object")
    _expect(isinstance(comp.get("id"), str), f"{loc}.id", "id must be a string")
    _expect(type(comp.get("discrepancy")) is int, f"{loc}.discrepancy",
            "discrepancy must be an integer")
    return comp["id"], comp["discrepancy"]


def _parse_fraction(obj, location: str) -> Fraction:
    """One rational, written as an integer or a "num/den" string."""
    if not (type(obj) is int or isinstance(obj, str)):
        raise DescriptorFileError(location, 'rationals must be integers or "num/den" strings')
    try:
        return Fraction(obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise DescriptorFileError(location, f"bad rational {obj!r}: {exc}")


def _parse_matrix(obj, location: str, rationals: Dict[object, Fraction]) -> List[List[Fraction]]:
    """Rows of rationals; only an entry not in `rationals` is parsed, with its key path."""
    _expect(isinstance(obj, list), location, "matrix must be a list of rows")
    out = []
    for i, row in enumerate(obj):
        _expect(isinstance(row, list), f"{location}[{i}]", "matrix row must be a list")
        parsed = []
        for x in row:
            # the type test comes first: True hashes like 1, and a list is unhashable
            value = rationals.get(x) if type(x) is int or isinstance(x, str) else None
            if value is None:
                value = rationals[x] = _parse_fraction(x, f"{location}[{i}][{len(parsed)}]")
            parsed.append(value)
        out.append(parsed)
    return out


def _parse_snc(obj, dim: int, location: str,
               keys: Dict[str, Tuple[int, int]]) -> SncComplexData:
    _expect(isinstance(obj, dict), location, "snc block must be an object")
    levels_doc = obj.get("levels", {})
    _expect(isinstance(levels_doc, dict), f"{location}.levels", "levels must be an object")
    levels: Dict[int, Tuple[SncComponent, ...]] = {}
    for key, comps in levels_doc.items():
        _expect(str(key).isdecimal() and int(key) >= 1, f"{location}.levels[{key!r}]",
                "level keys must be integers >= 1")
        r = int(key)
        _expect(r not in levels, f"{location}.levels[{key!r}]", "repeats an earlier level")
        parsed = []
        _expect(isinstance(comps, list), f"{location}.levels[{key!r}]", "must be a list")
        for i, comp in enumerate(comps):
            loc = f"{location}.levels[{key!r}][{i}]"
            _expect(isinstance(comp, dict), loc, "component must be an object")
            subset = comp.get("subset")
            _expect(
                isinstance(subset, list) and all(isinstance(s, str) for s in subset),
                f"{loc}.subset", "subset must be a list of component ids",
            )
            diamond = None
            if "diamond" in comp:
                diamond = _parse_diamond(comp["diamond"], dim - r, f"{loc}.diamond", keys)
            faces = comp.get("faces", [])
            _expect(
                isinstance(faces, list) and all(type(f) is int for f in faces), f"{loc}.faces",
                "faces must be a list of integer indices",
            )
            parsed.append(
                SncComponent(subset=tuple(subset), diamond=diamond, faces=tuple(faces))
            )
        levels[r] = tuple(parsed)
    maps_doc = obj.get("user_maps", {})
    _expect(isinstance(maps_doc, dict), f"{location}.user_maps", "user_maps must be an object")
    user_maps: Dict[Tuple[int, int, int], Tuple[List[List[Fraction]], ...]] = {}
    rationals: Dict[object, Fraction] = {}  # "1", "-1" and "0" recur in every matrix
    for key, mats in maps_doc.items():
        parts = str(key).split(",")
        _expect(
            len(parts) == 3 and all(part.strip().isdecimal() for part in parts),
            f"{location}.user_maps[{key!r}]", 'keys must look like "k,p,q"',
        )
        _expect(isinstance(mats, list), f"{location}.user_maps[{key!r}]", "must be a list")
        k, p, q = (int(part) for part in parts)
        _expect((k, p, q) not in user_maps, f"{location}.user_maps[{key!r}]",
                "repeats an earlier row")
        user_maps[(k, p, q)] = tuple(
            _parse_matrix(mat, f"{location}.user_maps[{key!r}][{i}]", rationals)
            for i, mat in enumerate(mats)
        )
    return SncComplexData(levels=levels, user_maps=user_maps)


def _parse_fiber(obj, location: str,
                 keys: Dict[str, Tuple[int, int]]) -> ExceptionalFiberDescriptor:
    _expect(isinstance(obj, dict), location, "fiber entry must be an object")
    point = obj.get("point")
    _expect(isinstance(point, str), f"{location}.point", "point label must be a string")
    comps = obj.get("components")
    _expect(isinstance(comps, list) and comps, f"{location}.components",
            "fiber needs a nonempty component list")
    parsed = []
    for i, comp in enumerate(comps):
        loc = f"{location}.components[{i}]"
        cid, a = _parse_component(comp, loc)
        diamond = _parse_diamond(comp.get("diamond"), 2, f"{loc}.diamond", keys)
        parsed.append(FiberComponent(cid, diamond, a))
    counts_doc = obj.get("pairwise_counts", {})
    _expect(isinstance(counts_doc, dict), f"{location}.pairwise_counts",
            "pairwise_counts must be an object")
    counts: Dict[Tuple[str, str], int] = {}
    for key, value in counts_doc.items():
        loc = f"{location}.pairwise_counts[{key!r}]"
        pair = tuple(sorted(key.split(",")))
        _expect(pair not in counts, loc, "repeats an earlier pair")
        _expect(type(value) is int, loc, "counts must be integers")
        counts[pair] = value
    fd = ExceptionalFiberDescriptor(point=point, components=tuple(parsed), pairwise_counts=counts)
    problems = fd.validate()
    _expect(not problems, location, "; ".join(problems))
    return fd


def parse_bundle(doc, location: str = "<document>") -> DescriptorBundle:
    _expect(isinstance(doc, dict), location, "top level must be a JSON object")
    dim = doc.get("dim")
    _expect(type(dim) is int and dim >= 0, f"{location}.dim",
            "dim must be a nonnegative integer")
    label = doc.get("label", "")
    _expect(isinstance(label, str), f"{location}.label", "label must be a string")
    comps_doc = doc.get("components", [])
    _expect(isinstance(comps_doc, list), f"{location}.components", "must be a list")
    components = tuple(
        _parse_component(comp, f"{location}.components[{i}]") for i, comp in enumerate(comps_doc)
    )
    strata_doc = doc.get("strata")
    _expect(isinstance(strata_doc, dict) and strata_doc, f"{location}.strata",
            "missing Y stratum: strata must contain at least the empty key")
    strata: Dict[Tuple[str, ...], HodgeDiamond] = {}
    keys: Dict[str, Tuple[int, int]] = {}  # sparse "p,q" keys, shared by every diamond
    for key, value in strata_doc.items():
        subset = tuple(sorted(filter(None, key.split(","))))
        loc = f"{location}.strata[{key!r}]"
        _expect(subset not in strata, loc, "repeats an earlier stratum")
        strata[subset] = _parse_diamond(value, dim - len(subset), loc, keys)
    descriptor = ResolutionDescriptor(
        n=dim, components=components, strata=strata, label=label
    )
    problems = descriptor.validate()
    _expect(not problems, location, "; ".join(problems))
    snc = None
    if "snc" in doc:
        snc = _parse_snc(doc["snc"], dim, f"{location}.snc", keys)
        problems = snc.validate()
        _expect(not problems, f"{location}.snc", "; ".join(problems))
    fibers_doc = doc.get("fibers", [])
    _expect(isinstance(fibers_doc, list), f"{location}.fibers", "fibers must be a list")
    fibers = tuple(
        _parse_fiber(fiber, f"{location}.fibers[{i}]", keys) for i, fiber in enumerate(fibers_doc)
    )
    return DescriptorBundle(descriptor=descriptor, snc=snc, fibers=fibers)


def _unique_keys(path: str):
    """object_pairs_hook for json.load: a key written twice in one object raises."""

    def hook(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                _expect(key not in seen, path, f"repeats an earlier key {key!r} in one object")
                seen.add(key)
        return obj

    return hook


def load_bundle(path: str) -> DescriptorBundle:
    try:
        with open(path, encoding="utf-8") as fh:  # RFC 8259, whatever the locale
            doc = json.load(fh, object_pairs_hook=_unique_keys(path))
    except OSError as exc:
        raise DescriptorFileError(path, f"cannot read: {exc}")
    except UnicodeDecodeError as exc:
        raise DescriptorFileError(path, f"not valid UTF-8: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise DescriptorFileError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg)
    return parse_bundle(doc, location=path)
