"""JSON document formats for every object the engine exchanges with disk.

One canonical serialization per kind, strict parsers that reject missing or
unknown entries, and a kind sniffer so the command line can validate a file
without being told what it holds.  Canonical form: object keys sorted,
subset labels written as ``{a,b}`` with the member labels sorted, two-space
indentation, trailing newline.
"""

from __future__ import annotations

import json
import operator
from typing import Any, Callable, Iterable, Mapping, Sequence

from .adherence import AdherenceStructure, adherence_structure
from .convergence import ConvergenceStructure
from .duality import (
    _check_point_count,
    FiniteAdherenceSpace,
    FiniteConvergenceSpace,
    FiniteTopologicalSpace,
)
from .errors import DocumentError
from .filters import Filter, UpSet
from .lattice import (
    FiniteLattice,
    bits,
    build_lattice,
    cover_pairs,
    dualize,
    mask_boolean,
    powerset_lattice,
    subset_label,
    subset_mask,
)
from .topology import TopologicalStructure, topological_structure

__all__ = [
    "adherence_from_doc",
    "adherence_space_from_doc",
    "adherence_space_to_doc",
    "adherence_to_doc",
    "canonical_json",
    "convergence_from_doc",
    "convergence_to_doc",
    "document_kind",
    "filter_from_doc",
    "filter_to_doc",
    "lattice_from_doc",
    "lattice_to_doc",
    "load_document",
    "space_from_doc",
    "space_to_doc",
    "structure_from_doc",
    "structure_to_doc",
    "subset_mask",
    "topological_space_from_doc",
    "topological_space_to_doc",
    "topology_from_doc",
    "topology_to_doc",
    "upset_from_doc",
    "upset_to_doc",
]


def canonical_json(doc: Any) -> str:
    """The one true serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# point labels (used by the space documents)


def _check_point_labels(points: Iterable[str]) -> tuple[str, ...]:
    pts = tuple(points)
    for p in pts:
        if not isinstance(p, str) or not p:
            raise DocumentError("point labels must be non-empty strings")
        if p != p.strip():
            raise DocumentError(f"point label {p!r} may not have flanking spaces")
    if len(set(pts)) != len(pts):
        raise DocumentError("point labels must be unique")
    return pts


# ---------------------------------------------------------------------------
# lattices


def _require_mapping(doc: Any, kind: str) -> Mapping[str, Any]:
    if not isinstance(doc, Mapping):
        raise DocumentError(f"{kind} document must be a JSON object")
    return doc


def _string_list(value: Any, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DocumentError(f"{what} must be a list of strings")
    return list(value)


def lattice_to_doc(lattice: FiniteLattice) -> dict[str, Any]:
    """A carrier built by :func:`powerset_lattice`, or its dual, in the
    ``{"powerset": ground}`` shorthand (the ground read off its atoms) that
    reloads to that very object; every other carrier as its name, elements
    and cover pairs."""
    if mask_boolean(lattice):
        base = lattice if lattice.meet is operator.and_ else lattice.dual
        ground = [base.label(1 << i)[1:-1] for i in range(base.n.bit_length() - 1)]
        if base.name == "P(" + ",".join(ground) + ")" and base is powerset_lattice(ground):
            return {"powerset": ground} if base is lattice else {"powerset": ground, "as": "frame"}
    return {
        "name": lattice.name,
        "elements": list(lattice.elements),
        "covers": sorted(map(list, cover_pairs(lattice))),
    }


_LATTICE_KEYS = {"name", "elements", "covers", "powerset", "as"}


def lattice_from_doc(doc: Any) -> FiniteLattice:
    """Build a lattice from a document, a ``{"powerset": [...]}`` shorthand,
    or a built-in fixture name.  ``"as": "frame"`` means the document lists
    the *opposite* order, so the result is dualized after construction."""
    if isinstance(doc, str):
        from .fixtures import lattice_fixture

        return lattice_fixture(doc)
    doc = _require_mapping(doc, "lattice")
    extra = set(doc) - _LATTICE_KEYS
    if extra:
        raise DocumentError(f"unknown lattice document keys {sorted(extra)}")
    as_kind = doc.get("as", "coframe")
    if as_kind not in ("coframe", "frame"):
        raise DocumentError(f'"as" must be "frame" or "coframe", got {as_kind!r}')
    if "powerset" in doc:
        if "elements" in doc or "covers" in doc:
            raise DocumentError('"powerset" excludes "elements"/"covers"')
        lattice = powerset_lattice(tuple(_string_list(doc["powerset"], '"powerset"')))
    else:
        if "elements" not in doc or "covers" not in doc:
            raise DocumentError('lattice document needs "elements" and "covers"')
        elements = _string_list(doc["elements"], '"elements"')
        raw = doc["covers"]
        if not isinstance(raw, list):
            raise DocumentError('"covers" must be a list of [lo, hi] pairs')
        covers = []
        for pair in raw:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)
            ):
                raise DocumentError(f"cover {pair!r} is not a [lo, hi] label pair")
            covers.append((pair[0], pair[1]))
        name = doc.get("name", "lattice")
        if not isinstance(name, str) or not name:
            raise DocumentError('"name" must be a non-empty string')
        try:
            lattice = build_lattice(name, elements, covers)
        except KeyError as err:
            raise DocumentError(
                f'"covers" names undeclared element {err.args[0]!r}'
            ) from None
    if as_kind == "frame":
        lattice = dualize(lattice)
    return lattice


def _label_of(lattice: FiniteLattice, value: Any, what: str) -> int:
    if not isinstance(value, str):
        raise DocumentError(f"{what} must be an element label, got {value!r}")
    try:
        return lattice.index(value)
    except KeyError:
        raise DocumentError(f"unknown element {value!r} in {what}") from None


def _table_from_mapping(
    lattice: FiniteLattice, mapping: Any, key: str
) -> tuple[int, ...]:
    if not isinstance(mapping, Mapping):
        raise DocumentError(f'"{key}" must be an object mapping labels to labels')
    seen = set()
    table = [0] * lattice.n
    for k, v in mapping.items():
        i = _label_of(lattice, k, f'"{key}" key')
        seen.add(i)
        table[i] = _label_of(lattice, v, f'"{key}"[{k!r}]')
    missing = [i for i in range(lattice.n) if i not in seen]
    if missing:
        raise _missing_entries(key, missing, lattice.label)
    return tuple(table)


def _missing_entries(
    key: str, missing: list[int], label: Callable[[int], str]
) -> DocumentError:
    """The error for a table with missing entries: their count and the
    labels of the first five, so the message stays short on any carrier."""
    shown = ", ".join(label(i) for i in missing[:5])
    more = ", ..." if len(missing) > 5 else ""
    return DocumentError(f'"{key}" is missing {len(missing)} entries: {shown}{more}')


# ---------------------------------------------------------------------------
# lattice-side structures


def convergence_to_doc(cs: ConvergenceStructure) -> dict[str, Any]:
    lat = cs.lattice
    return {
        "lattice": lattice_to_doc(lat),
        "lim": {lat.label(g): lat.label(cs.limtab[g]) for g in range(lat.n)},
    }


def convergence_from_doc(doc: Any) -> ConvergenceStructure:
    doc = _require_mapping(doc, "convergence")
    if set(doc) != {"lattice", "lim"}:
        raise DocumentError('convergence document needs exactly "lattice" and "lim"')
    lattice = lattice_from_doc(doc["lattice"])
    return ConvergenceStructure(lattice, _table_from_mapping(lattice, doc["lim"], "lim"))


def adherence_to_doc(ns: AdherenceStructure) -> dict[str, Any]:
    lat = ns.lattice
    return {
        "lattice": lattice_to_doc(lat),
        "nu": {lat.label(l): lat.label(ns.nutab[l]) for l in range(lat.n)},
    }


def adherence_from_doc(doc: Any) -> AdherenceStructure:
    doc = _require_mapping(doc, "adherence")
    if set(doc) != {"lattice", "nu"}:
        raise DocumentError('adherence document needs exactly "lattice" and "nu"')
    lattice = lattice_from_doc(doc["lattice"])
    return adherence_structure(lattice, _table_from_mapping(lattice, doc["nu"], "nu"))


def topology_to_doc(ts: TopologicalStructure) -> dict[str, Any]:
    lat = ts.lattice
    return {
        "lattice": lattice_to_doc(lat),
        "closed": sorted(lat.label(c) for c in bits(ts.closed)),
    }


def topology_from_doc(doc: Any) -> TopologicalStructure:
    doc = _require_mapping(doc, "topology")
    if set(doc) != {"lattice", "closed"}:
        raise DocumentError('topological document needs exactly "lattice" and "closed"')
    lattice = lattice_from_doc(doc["lattice"])
    labels = _string_list(doc["closed"], '"closed"')
    members = [_label_of(lattice, c, '"closed"') for c in labels]
    if len(set(members)) != len(members):
        raise DocumentError('"closed" lists an element twice')
    return topological_structure(lattice, members)


# ---------------------------------------------------------------------------
# filter and up-set literals


def filter_to_doc(f: Filter) -> dict[str, Any]:
    return {"filter": f.lattice.label(f.generator)}


def filter_from_doc(doc: Any, lattice: FiniteLattice) -> Filter:
    doc = _require_mapping(doc, "filter")
    if set(doc) - {"filter", "lattice"} or "filter" not in doc:
        raise DocumentError('filter document needs a "filter" generator label')
    return Filter(lattice, _label_of(lattice, doc["filter"], '"filter"'))


def upset_to_doc(u: UpSet) -> dict[str, Any]:
    return {"upset": sorted(u.lattice.label(i) for i in bits(u.members))}


def upset_from_doc(doc: Any, lattice: FiniteLattice) -> UpSet:
    """Upward closure is validated, never applied silently."""
    doc = _require_mapping(doc, "up-set")
    if set(doc) - {"upset", "lattice"} or "upset" not in doc:
        raise DocumentError('up-set document needs an "upset" member list')
    labels = _string_list(doc["upset"], '"upset"')
    members = 0
    for c in labels:
        members |= 1 << _label_of(lattice, c, '"upset"')
    return UpSet(lattice, members)


# ---------------------------------------------------------------------------
# spaces


def _subset_labels(pts: tuple[str, ...], masks: Sequence[int]) -> list[str]:
    """The labels of the subsets ``masks`` of ``pts``, each checked to read
    back to its own subset, after the point labels pass the reader's
    checks; raises :class:`DocumentError` before anything is written.  Only
    comma point labels need the parse: without them a label splits into its
    points one way, as the reader's lookup assumes."""
    _check_point_labels(pts)
    labels = [subset_label(pts, a) for a in masks]
    if any("," in p for p in pts):
        for a, label in zip(masks, labels):
            try:
                readable = subset_mask(pts, label) == a
            except DocumentError:
                readable = False
            if not readable:
                raise DocumentError(
                    f"point labels {list(pts)} make the subset label {label!r} unreadable"
                )
    return labels


def _subset_table_doc(
    pts: tuple[str, ...], table: tuple[int, ...]
) -> dict[str, str]:
    labels = _subset_labels(pts, range(len(table)))
    return {labels[a]: labels[v] for a, v in enumerate(table)}


def space_to_doc(space: FiniteConvergenceSpace) -> dict[str, Any]:
    return {
        "points": list(space.points),
        "lim": _subset_table_doc(space.points, space.limtab),
    }


def _space_table(doc: Mapping[str, Any], key: str) -> tuple[tuple[str, ...], list[int]]:
    pts = _check_point_labels(_string_list(doc["points"], '"points"'))
    _check_point_count(pts)
    mapping = doc[key]
    if not isinstance(mapping, Mapping):
        raise DocumentError(f'"{key}" must map subset labels to subset labels')
    table = [-1] * (1 << len(pts))
    for k, v in mapping.items():
        a = subset_mask(pts, k)
        if table[a] != -1:
            raise DocumentError(f"subset {k!r} listed twice")
        table[a] = subset_mask(pts, v)
    missing = [a for a, v in enumerate(table) if v == -1]
    if missing:
        raise _missing_entries(key, missing, lambda a: subset_label(pts, a))
    return pts, table


def space_from_doc(doc: Any) -> FiniteConvergenceSpace:
    doc = _require_mapping(doc, "space")
    if set(doc) != {"points", "lim"}:
        raise DocumentError('space document needs exactly "points" and "lim"')
    pts, table = _space_table(doc, "lim")
    return FiniteConvergenceSpace(pts, tuple(table))


def adherence_space_to_doc(adh: FiniteAdherenceSpace) -> dict[str, Any]:
    return {
        "points": list(adh.points),
        "nu": _subset_table_doc(adh.points, adh.adhtab),
    }


def adherence_space_from_doc(doc: Any) -> FiniteAdherenceSpace:
    doc = _require_mapping(doc, "adherence space")
    if set(doc) != {"points", "nu"}:
        raise DocumentError('adherence-space document needs exactly "points" and "nu"')
    pts, table = _space_table(doc, "nu")
    return FiniteAdherenceSpace(pts, tuple(table))


def topological_space_to_doc(tsp: FiniteTopologicalSpace) -> dict[str, Any]:
    labels = sorted(_subset_labels(tsp.points, tsp.closed))
    if len(set(labels)) != len(labels):
        raise DocumentError("the closed family lists a subset twice")
    return {"points": list(tsp.points), "closed": labels}


def topological_space_from_doc(doc: Any) -> FiniteTopologicalSpace:
    doc = _require_mapping(doc, "topological space")
    if set(doc) != {"points", "closed"}:
        raise DocumentError(
            'topological-space document needs exactly "points" and "closed"'
        )
    pts = _check_point_labels(_string_list(doc["points"], '"points"'))
    _check_point_count(pts)
    labels = _string_list(doc["closed"], '"closed"')
    # canonical labels of comma-free points parse one way: look them up
    known = {} if any("," in p for p in pts) else powerset_lattice(pts).positions
    masks = [known[c] if c in known else subset_mask(pts, c) for c in labels]
    if len(set(masks)) != len(masks):
        raise DocumentError('"closed" lists a subset twice')
    return FiniteTopologicalSpace(pts, tuple(sorted(masks)))


# ---------------------------------------------------------------------------
# kind detection and dispatch


def document_kind(doc: Any) -> str:
    """Sniff which document format a parsed JSON value uses."""
    if isinstance(doc, str):
        return "lattice"
    doc = _require_mapping(doc, "any")
    if "points" in doc:
        if "lim" in doc:
            return "space"
        if "nu" in doc:
            return "adherence-space"
        if "closed" in doc:
            return "topological-space"
        raise DocumentError('a "points" document needs "lim", "nu" or "closed"')
    if "lattice" in doc:
        if "lim" in doc:
            return "convergence"
        if "nu" in doc:
            return "adherence"
        if "closed" in doc:
            return "topology"
        if "filter" in doc:
            return "filter"
        if "upset" in doc:
            return "upset"
        raise DocumentError(
            'a "lattice" document needs "lim", "nu", "closed", "filter" or "upset"'
        )
    if "elements" in doc or "powerset" in doc:
        return "lattice"
    raise DocumentError(f"cannot tell what kind of document this is: keys {sorted(doc)}")


def structure_from_doc(doc: Any):
    """Parse a document of any kind into the corresponding engine object."""
    kind = document_kind(doc)
    if kind == "lattice":
        return lattice_from_doc(doc)
    if kind == "convergence":
        return convergence_from_doc(doc)
    if kind == "adherence":
        return adherence_from_doc(doc)
    if kind == "topology":
        return topology_from_doc(doc)
    if kind == "space":
        return space_from_doc(doc)
    if kind == "adherence-space":
        return adherence_space_from_doc(doc)
    if kind == "topological-space":
        return topological_space_from_doc(doc)
    lattice = lattice_from_doc(doc["lattice"])
    if kind == "filter":
        return filter_from_doc(doc, lattice)
    return upset_from_doc(doc, lattice)


def structure_to_doc(obj: Any) -> dict[str, Any]:
    """Serialize any engine object to its document form."""
    if isinstance(obj, FiniteLattice):
        return lattice_to_doc(obj)
    if isinstance(obj, ConvergenceStructure):
        return convergence_to_doc(obj)
    if isinstance(obj, AdherenceStructure):
        return adherence_to_doc(obj)
    if isinstance(obj, TopologicalStructure):
        return topology_to_doc(obj)
    if isinstance(obj, FiniteConvergenceSpace):
        return space_to_doc(obj)
    if isinstance(obj, FiniteAdherenceSpace):
        return adherence_space_to_doc(obj)
    if isinstance(obj, FiniteTopologicalSpace):
        return topological_space_to_doc(obj)
    if isinstance(obj, Filter):
        doc = filter_to_doc(obj)
        doc["lattice"] = lattice_to_doc(obj.lattice)
        return doc
    if isinstance(obj, UpSet):
        doc = upset_to_doc(obj)
        doc["lattice"] = lattice_to_doc(obj.lattice)
        return doc
    raise DocumentError(f"cannot serialize {type(obj).__name__}")


def load_document(text: str):
    """Parse JSON text and build the object it describes."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(f"not valid JSON: {err}") from None
    return document_kind(doc), structure_from_doc(doc)
