"""JSON descriptor files: loading and validation.

One file describes one variety: ambient dimension, exceptional components
with discrepancies, stratum Hodge diamonds, and optional SNC incidence and
per-point fiber blocks.  Rationals are "num/den" strings, so no floating point
is on the wire; sparse "p,q" keys are read once per process (`_PQ`).  A file
is read as bytes once and decoded by one module-level decoder (`_DECODER`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Dict, List, Optional, Tuple, Union

from .analysis import ExceptionalFiberDescriptor, FiberComponent
from .hodge import HodgeDiamond
from .sncweights import SncComplexData, SncComponent
from .stringy import ResolutionDescriptor

Rational = Union[int, Fraction]  # an integral rational is kept as an int


class DescriptorFileError(ValueError):
    """Raised on malformed descriptor files, with a key-path location."""

    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


@dataclass(frozen=True)
class DescriptorBundle:
    descriptor: ResolutionDescriptor
    snc: Optional[SncComplexData] = None
    fibers: Tuple[ExceptionalFiberDescriptor, ...] = ()


def _expect(cond: bool, location: str, message: str) -> None:
    if not cond:
        raise DescriptorFileError(location, message)


def _fields(obj, location: str, message: str) -> dict:
    """The fields of a decoded object read by name; a key written twice raises
    at the later one, as do all keys that name one thing."""
    _expect(type(obj) is tuple, location, message)
    fields = dict(obj)
    if len(fields) < len(obj):
        seen = set()
        for key, _ in obj:
            _expect(key not in seen, f"{location}[{key!r}]", "repeats an earlier key")
            seen.add(key)
    return fields


_INTS = frozenset((int,))
_value = itemgetter(1)


class _Keys(dict):
    """"p,q" -> (p, q), None for a spelling that does not parse; the first 1024
    that parse and have at most 16 characters are kept per process, the rest read anew."""

    def __missing__(self, key):
        left, _, right = key.partition(",")
        if left.strip().isdecimal() and right.strip().isdecimal():
            pq = int(left), int(right)
            if len(self) < 1024 and len(key) <= 16:
                self[key] = pq
            return pq


_PQ = _Keys()
_Memo = Dict[tuple, HodgeDiamond]  # a document's diamonds of sparse maps, by spelling


def _parse_diamond(obj, dim: int, location: str, diamonds: _Memo) -> HodgeDiamond:
    """The diamond of one stratum or component, parsed once per spelling.

    `diamonds` maps the (dim, pairs) of every sparse map that parsed in the
    document to its diamond, which every later map spelled alike gets.  What
    it holds parsed, so its values are ints, and only a map of ints is looked
    up, since true and 1.0 equal 1 and a list cannot be hashed.  Anything else
    is parsed, so a bad diamond raises at its first occurrence.  Sparse keys
    are read through `_PQ`, which keeps the spellings of the process.

    Key paths are spelled out only to raise, below `location`, which is ""
    for a caller that roots the path itself.  JSON true/false load as bool, a
    subclass of int, so integers are tested with `type(value) is int`.
    """
    spelled = None
    if type(obj) is tuple and _INTS.issuperset(map(type, map(_value, obj))):
        spelled = (dim, obj)
        diamond = diamonds.get(spelled)
        if diamond is not None:
            return diamond
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
    elif type(obj) is tuple:
        for key, value in obj:
            pq = _PQ[key]
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
            pqs = [_PQ[key] for key, _ in obj]
            for i, (key, _) in enumerate(obj):
                _expect(pqs[i] not in pqs[:i], f"{location}[{key!r}]",
                        f"repeats an earlier (p,q) = {pqs[i]}")
    else:
        raise DescriptorFileError(location, "diamond must be a dense matrix or a sparse map")
    if dim < 0:  # only an empty [] or {} gets here: the stratum itself must be empty
        raise DescriptorFileError(location,
                                  f"dimension would be {dim}; an empty stratum has no diamond")
    diamond = HodgeDiamond._trusted(dim, h)  # in range and free of zeros already
    if spelled is not None:
        diamonds[spelled] = diamond
    return diamond


def _parse_component(comp, loc: str) -> Tuple[str, int, dict]:
    """The id and discrepancy of one component object, and its fields."""
    comp = _fields(comp, loc, "component must be an object")
    cid = comp.get("id")  # stratum keys and fiber pairs join ids with ","; "" alone is Y
    if not (isinstance(cid, str) and cid != "" and "," not in cid):
        raise DescriptorFileError(f"{loc}.id", 'id must be a nonempty string without ","')
    if type(comp.get("discrepancy")) is not int:
        raise DescriptorFileError(f"{loc}.discrepancy", "discrepancy must be an integer")
    return cid, comp["discrepancy"], comp


def _parse_rational(obj, location: str) -> Rational:
    """One rational, written as an integer or a "num/den" string; an integral
    one, such as "4/2" or "-1", comes back as an int."""
    if not (type(obj) is int or isinstance(obj, str)):
        raise DescriptorFileError(location, 'rationals must be integers or "num/den" strings')
    try:
        value = Fraction(obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise DescriptorFileError(location, f"bad rational {obj!r}: {exc}")
    return value.numerator if value.denominator == 1 else value


def _parse_matrix(obj, location: str, rationals: Dict[object, Rational]) -> List[List[Rational]]:
    """Rows of rationals; only an entry not in `rationals` is parsed, and key
    paths are spelled out only to raise."""
    _expect(isinstance(obj, list), location, "matrix must be a list of rows")
    out = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise DescriptorFileError(f"{location}[{i}]", "matrix row must be a list")
        parsed = []
        for x in row:
            # the type test comes first: True hashes like 1, and a list is unhashable
            value = rationals.get(x) if type(x) is int or isinstance(x, str) else None
            if value is None:
                value = rationals[x] = _parse_rational(x, f"{location}[{i}][{len(parsed)}]")
            parsed.append(value)
        out.append(parsed)
    return out


def _parse_snc(obj, dim: int, location: str, diamonds: _Memo) -> SncComplexData:
    obj = _fields(obj, location, "snc block must be an object")
    levels_doc = obj.get("levels", ())
    _expect(type(levels_doc) is tuple, f"{location}.levels", "levels must be an object")
    levels: Dict[int, Tuple[SncComponent, ...]] = {}
    for key, comps in levels_doc:
        loc = f"{location}.levels[{key!r}]"
        _expect(str(key).isdecimal() and int(key) >= 1, loc, "level keys must be integers >= 1")
        r = int(key)
        _expect(r not in levels, loc, "repeats an earlier level")
        parsed = []
        _expect(isinstance(comps, list), loc, "must be a list")
        for i, comp in enumerate(comps):
            try:  # paths below the component come back relative, and are rooted only to raise
                comp = _fields(comp, "", "component must be an object")
                subset = comp.get("subset")
                _expect(isinstance(subset, list) and all(map(isinstance, subset, repeat(str))),
                        ".subset", "subset must be a list of component ids")
                diamond = None
                if "diamond" in comp:
                    diamond = _parse_diamond(comp["diamond"], dim - r, ".diamond", diamonds)
                faces = comp.get("faces", [])
                _expect(isinstance(faces, list) and {int}.issuperset(map(type, faces)),
                        ".faces", "faces must be a list of integer indices")
            except DescriptorFileError as exc:
                raise DescriptorFileError(f"{loc}[{i}]{exc.location}", exc.message) from None
            parsed.append(
                SncComponent(subset=tuple(subset), diamond=diamond, faces=tuple(faces))
            )
        levels[r] = tuple(parsed)
    maps_doc = obj.get("user_maps", ())
    _expect(type(maps_doc) is tuple, f"{location}.user_maps", "user_maps must be an object")
    user_maps: Dict[Tuple[int, int, int], Tuple[List[List[Rational]], ...]] = {}
    rationals: Dict[object, Rational] = {}  # "1", "-1" and "0" recur in every matrix
    for key, mats in maps_doc:
        loc = f"{location}.user_maps[{key!r}]"
        parts = str(key).split(",")
        _expect(len(parts) == 3 and all(part.strip().isdecimal() for part in parts), loc,
                'keys must look like "k,p,q"')
        _expect(isinstance(mats, list), loc, "must be a list")
        k, p, q = (int(part) for part in parts)
        _expect((k, p, q) not in user_maps, loc, "repeats an earlier row")
        user_maps[(k, p, q)] = tuple(
            _parse_matrix(mat, f"{loc}[{i}]", rationals) for i, mat in enumerate(mats)
        )
    return SncComplexData(levels=levels, user_maps=user_maps)


def _parse_fiber(obj, location: str, diamonds: _Memo) -> ExceptionalFiberDescriptor:
    obj = _fields(obj, location, "fiber entry must be an object")
    point = obj.get("point")
    _expect(isinstance(point, str), f"{location}.point", "point label must be a string")
    comps = obj.get("components")
    _expect(isinstance(comps, list) and comps, f"{location}.components",
            "fiber needs a nonempty component list")
    parsed = []
    for i, comp in enumerate(comps):
        loc = f"{location}.components[{i}]"
        cid, a, comp = _parse_component(comp, loc)
        diamond = _parse_diamond(comp.get("diamond"), 2, f"{loc}.diamond", diamonds)
        parsed.append(FiberComponent(cid, diamond, a))
    counts_doc = obj.get("pairwise_counts", ())
    _expect(type(counts_doc) is tuple, f"{location}.pairwise_counts",
            "pairwise_counts must be an object")
    counts: Dict[Tuple[str, str], int] = {}
    for key, value in counts_doc:
        loc = f"{location}.pairwise_counts[{key!r}]"
        pair = tuple(sorted(key.split(",")))
        _expect(pair not in counts, loc, "repeats an earlier pair")
        _expect(type(value) is int, loc, "counts must be integers")
        counts[pair] = value
    fd = ExceptionalFiberDescriptor(point=point, components=tuple(parsed), pairwise_counts=counts)
    problems = fd.validate()
    _expect(not problems, location, "; ".join(problems))
    return fd


def _decoded(obj):
    """What load_bundle decodes from the file that json.dump writes of obj."""
    if isinstance(obj, dict):
        return tuple((key, _decoded(value)) for key, value in obj.items())
    return list(map(_decoded, obj)) if isinstance(obj, (list, tuple)) else obj


def parse_bundle(doc, location: str = "<document>") -> DescriptorBundle:
    doc = _fields(doc if type(doc) is tuple else _decoded(doc), location,  # decoded already
                  "top level must be a JSON object")
    dim = doc.get("dim")
    _expect(type(dim) is int and dim >= 0, f"{location}.dim",
            "dim must be a nonnegative integer")
    label = doc.get("label", "")
    _expect(isinstance(label, str), f"{location}.label", "label must be a string")
    comps_doc = doc.get("components", [])
    _expect(isinstance(comps_doc, list), f"{location}.components", "must be a list")
    components = tuple(
        _parse_component(c, f"{location}.components[{i}]")[:2] for i, c in enumerate(comps_doc)
    )
    strata_doc = doc.get("strata")
    _expect(type(strata_doc) is tuple and strata_doc, f"{location}.strata",
            "missing Y stratum: strata must contain at least the empty key")
    strata: Dict[Tuple[str, ...], HodgeDiamond] = {}
    diamonds: _Memo = {}
    for key, value in strata_doc:
        subset = tuple(sorted(key.split(","))) if key else ()
        try:  # paths below the stratum come back relative, and are rooted only to raise
            if subset and not subset[0]:  # an empty id sorts first
                raise DescriptorFileError("", 'names an empty id; only the key "" names Y')
            if subset in strata:
                raise DescriptorFileError("", "repeats an earlier stratum")
            strata[subset] = _parse_diamond(value, dim - len(subset), "", diamonds)
        except DescriptorFileError as exc:
            raise DescriptorFileError(f"{location}.strata[{key!r}]{exc.location}",
                                      exc.message) from None
    descriptor = ResolutionDescriptor(
        n=dim, components=components, strata=strata, label=label
    )
    problems = descriptor.validate()
    _expect(not problems, location, "; ".join(problems))
    snc = None
    if "snc" in doc:
        snc = _parse_snc(doc["snc"], dim, f"{location}.snc", diamonds)
        problems = snc.validate()
        _expect(not problems, f"{location}.snc", "; ".join(problems))
    fibers_doc = doc.get("fibers", [])
    _expect(isinstance(fibers_doc, list), f"{location}.fibers", "fibers must be a list")
    fibers = tuple(
        _parse_fiber(fiber, f"{location}.fibers[{i}]", diamonds)
        for i, fiber in enumerate(fibers_doc)
    )
    return DescriptorBundle(descriptor=descriptor, snc=snc, fibers=fibers)


_DECODER = json.JSONDecoder(object_pairs_hook=tuple)  # an object as its (key, value) pairs


def load_bundle(path: str) -> DescriptorBundle:
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")  # RFC 8259, whatever the locale
        # as json.loads of a text-mode read: a BOM raises, and newlines are universal
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        doc = _DECODER.decode(text)
    except OSError as exc:
        raise DescriptorFileError(path, f"cannot read: {exc}")
    except UnicodeDecodeError as exc:
        raise DescriptorFileError(path, f"not valid UTF-8: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise DescriptorFileError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg)
    except (ValueError, RecursionError) as exc:  # a too long integer literal, deep nesting
        raise DescriptorFileError(path, f"cannot parse: {exc}")
    return parse_bundle(doc, location=path)
