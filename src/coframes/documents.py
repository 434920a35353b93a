"""JSON document formats for every object the engine exchanges with disk.

One canonical serialization per kind, strict parsers that reject missing or
unknown entries, and a kind sniffer so the command line can validate a file
without being told what it holds.  :data:`DOCUMENT_KINDS` is the one table of
the kinds: for each, the class it holds, the keys that name it, its reader and
its writer; the sniffer and the generic reader and writer all read it.
Canonical form: object keys sorted, subset labels written as ``{a,b}`` with
the member labels sorted, two-space indentation, trailing newline.
"""

from __future__ import annotations

import json
import operator
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

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
    subset_reader,
)
from .topology import TopologicalStructure, topological_structure

__all__ = [
    "DOCUMENT_KINDS",
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


def _keyed(doc: Any, kind: str) -> Mapping[str, Any]:
    """``doc`` as an object holding exactly the two keys that name ``kind``."""
    doc = _require_mapping(doc, kind)
    first, second = DOCUMENT_KINDS[kind].keys
    if set(doc) != {first, second}:
        raise DocumentError(f'{kind} document needs exactly "{first}" and "{second}"')
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
    doc = _keyed(doc, "convergence")
    lattice = lattice_from_doc(doc["lattice"])
    return ConvergenceStructure(lattice, _table_from_mapping(lattice, doc["lim"], "lim"))


def adherence_to_doc(ns: AdherenceStructure) -> dict[str, Any]:
    lat = ns.lattice
    return {
        "lattice": lattice_to_doc(lat),
        "nu": {lat.label(l): lat.label(ns.nutab[l]) for l in range(lat.n)},
    }


def adherence_from_doc(doc: Any) -> AdherenceStructure:
    doc = _keyed(doc, "adherence")
    lattice = lattice_from_doc(doc["lattice"])
    return adherence_structure(lattice, _table_from_mapping(lattice, doc["nu"], "nu"))


def topology_to_doc(ts: TopologicalStructure) -> dict[str, Any]:
    lat = ts.lattice
    return {
        "lattice": lattice_to_doc(lat),
        "closed": sorted(lat.label(c) for c in bits(ts.closed)),
    }


def topology_from_doc(doc: Any) -> TopologicalStructure:
    doc = _keyed(doc, "topology")
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
    checks; raises :class:`DocumentError` before anything is written."""
    _check_point_labels(pts)
    read = subset_reader(pts)
    labels = [subset_label(pts, a) for a in masks]
    for a, label in zip(masks, labels):
        try:
            readable = read(label) == a
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
    read = subset_reader(pts)
    table = [-1] * (1 << len(pts))
    for k, v in mapping.items():
        a = read(k)
        if table[a] != -1:
            raise DocumentError(f"subset {k!r} listed twice")
        table[a] = read(v)
    missing = [a for a, v in enumerate(table) if v == -1]
    if missing:
        raise _missing_entries(key, missing, lambda a: _subset_name(pts, read, a))
    return pts, table


def _subset_name(pts: tuple[str, ...], read: Callable[[Any], int], a: int) -> str:
    """The label of the subset ``a`` of ``pts`` when it reads back to ``a``,
    else the list of its points: on points whose labels hold commas two
    subsets may share a label."""
    label = subset_label(pts, a)
    try:
        if read(label) == a:
            return label
    except DocumentError:
        pass
    return str([pts[i] for i in bits(a)])


def space_from_doc(doc: Any) -> FiniteConvergenceSpace:
    doc = _keyed(doc, "space")
    pts, table = _space_table(doc, "lim")
    return FiniteConvergenceSpace(pts, tuple(table))


def adherence_space_to_doc(adh: FiniteAdherenceSpace) -> dict[str, Any]:
    return {
        "points": list(adh.points),
        "nu": _subset_table_doc(adh.points, adh.adhtab),
    }


def adherence_space_from_doc(doc: Any) -> FiniteAdherenceSpace:
    doc = _keyed(doc, "adherence-space")
    pts, table = _space_table(doc, "nu")
    return FiniteAdherenceSpace(pts, tuple(table))


def topological_space_to_doc(tsp: FiniteTopologicalSpace) -> dict[str, Any]:
    labels = sorted(_subset_labels(tsp.points, tsp.closed))
    if len(set(labels)) != len(labels):
        raise DocumentError("the closed family lists a subset twice")
    return {"points": list(tsp.points), "closed": labels}


def topological_space_from_doc(doc: Any) -> FiniteTopologicalSpace:
    doc = _keyed(doc, "topological-space")
    pts = _check_point_labels(_string_list(doc["points"], '"points"'))
    _check_point_count(pts)
    masks = list(map(subset_reader(pts), _string_list(doc["closed"], '"closed"')))
    if len(set(masks)) != len(masks):
        raise DocumentError('"closed" lists a subset twice')
    return FiniteTopologicalSpace(pts, tuple(sorted(masks)))


# ---------------------------------------------------------------------------
# the document kinds


class DocumentKind(NamedTuple):
    """One kind of document: the class it holds, the keys that name it,
    and its reader and writer."""

    cls: type
    keys: tuple[str, ...]
    read: Callable[[Any], Any]
    write: Callable[[Any], dict[str, Any]]


# kind -> entry, in the order document_kind tries them.  A "points" or a
# "lattice" document is named by its second key; a lattice document holds
# either of its two keys, or is a fixture name.
DOCUMENT_KINDS: dict[str, DocumentKind] = {
    "space": DocumentKind(FiniteConvergenceSpace, ("points", "lim"), space_from_doc, space_to_doc),
    "adherence-space": DocumentKind(
        FiniteAdherenceSpace, ("points", "nu"), adherence_space_from_doc, adherence_space_to_doc
    ),
    "topological-space": DocumentKind(
        FiniteTopologicalSpace, ("points", "closed"), topological_space_from_doc,
        topological_space_to_doc,
    ),
    "convergence": DocumentKind(
        ConvergenceStructure, ("lattice", "lim"), convergence_from_doc, convergence_to_doc
    ),
    "adherence": DocumentKind(
        AdherenceStructure, ("lattice", "nu"), adherence_from_doc, adherence_to_doc
    ),
    "topology": DocumentKind(
        TopologicalStructure, ("lattice", "closed"), topology_from_doc, topology_to_doc
    ),
    "filter": DocumentKind(
        Filter, ("lattice", "filter"),
        lambda doc: filter_from_doc(doc, lattice_from_doc(doc["lattice"])),
        lambda f: {**filter_to_doc(f), "lattice": lattice_to_doc(f.lattice)},
    ),
    "upset": DocumentKind(
        UpSet, ("lattice", "upset"),
        lambda doc: upset_from_doc(doc, lattice_from_doc(doc["lattice"])),
        lambda u: {**upset_to_doc(u), "lattice": lattice_to_doc(u.lattice)},
    ),
    "lattice": DocumentKind(
        FiniteLattice, ("elements", "powerset"), lattice_from_doc, lattice_to_doc
    ),
}


def document_kind(doc: Any) -> str:
    """Sniff which document format a parsed JSON value uses: the first
    entry of :data:`DOCUMENT_KINDS` that names it."""
    if isinstance(doc, str):
        return "lattice"
    doc = _require_mapping(doc, "any")
    for head in ("points", "lattice"):
        if head in doc:
            tags = {e.keys[1]: kind for kind, e in DOCUMENT_KINDS.items() if e.keys[0] == head}
            for tag, kind in tags.items():
                if tag in doc:
                    return kind
            *rest, last = (f'"{tag}"' for tag in tags)
            raise DocumentError(f'a "{head}" document needs {", ".join(rest)} or {last}')
    if any(key in doc for key in DOCUMENT_KINDS["lattice"].keys):
        return "lattice"
    raise DocumentError(f"cannot tell what kind of document this is: keys {sorted(doc)}")


def structure_from_doc(doc: Any):
    """Parse a document of any kind into the corresponding engine object."""
    return DOCUMENT_KINDS[document_kind(doc)].read(doc)


def structure_to_doc(obj: Any) -> dict[str, Any]:
    """Serialize any engine object to its document form."""
    for entry in DOCUMENT_KINDS.values():
        if isinstance(obj, entry.cls):
            return entry.write(obj)
    raise DocumentError(f"cannot serialize {type(obj).__name__}")


def load_document(text: str):
    """Parse JSON text and build the object it describes."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(f"not valid JSON: {err}") from None
    kind = document_kind(doc)
    return kind, DOCUMENT_KINDS[kind].read(doc)
