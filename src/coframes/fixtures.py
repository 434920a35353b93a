"""Built-in corpus: named lattices and structures, plus seeded random
generators used by the law suites and the search command.

Each fixture is built on first lookup and kept by name, so repeated lookups
return the same carrier object (structures compare carriers by identity).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator

from .adherence import (
    AdherenceStructure,
    adherence_from_atom_values,
    lim_of_nu,
    random_adherence_structure,
)
from .convergence import ConvergenceStructure
from .duality import FiniteConvergenceSpace, convergence_space, pt_space
from .errors import BudgetExceeded, DocumentError
from .lattice import (
    FiniteLattice,
    FinitePoset,
    build_lattice,
    downset_lattice,
    poset_from_covers,
    powerset_lattice,
)
from .topology import TopologicalStructure, topological_structure

__all__ = [
    "FIXTURES",
    "fixture",
    "lattice_fixture",
    "lattice_fixture_names",
    "convergence_fixture",
    "convergence_fixture_names",
    "adherence_fixture",
    "adherence_fixture_names",
    "topology_fixture",
    "topology_fixture_names",
    "space_fixture",
    "space_fixture_names",
    "discrete_structure",
    "chaotic_structure",
    "random_poset",
    "random_downset_lattice",
    "random_antitone_table",
    "enumerate_antitone_tables",
]


def discrete_structure(lattice: FiniteLattice) -> ConvergenceStructure:
    """Nothing converges anywhere: every filter's limit is bottom."""
    return ConvergenceStructure(lattice, (lattice.bottom,) * lattice.n)


def chaotic_structure(lattice: FiniteLattice) -> ConvergenceStructure:
    """Everything converges everywhere: every filter's limit is top."""
    return ConvergenceStructure(lattice, (lattice.top,) * lattice.n)


def _chain(name: str, labels: tuple[str, ...]) -> FiniteLattice:
    return build_lattice(
        name, labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    )


def _limits(lattice_name: str, limits: dict[str, str]) -> ConvergenceStructure:
    """The structure on a lattice fixture with the given limit per label."""
    lat = lattice_fixture(lattice_name)
    return ConvergenceStructure(lat, tuple(lat.index(limits[g]) for g in lat.elements))


def _atom_adherences(lattice_name: str, values: dict[str, str]) -> AdherenceStructure:
    """The adherence structure on a lattice fixture with the given
    adherence per complemented atom label."""
    lat = lattice_fixture(lattice_name)
    return adherence_from_atom_values(
        lat, [lat.index(values[lat.label(a)]) for a in lat.comp_atoms]
    )


def _closed(lattice_name: str, labels: tuple[str, ...]) -> TopologicalStructure:
    """The topological structure on a lattice fixture with the given closed
    members."""
    lat = lattice_fixture(lattice_name)
    return topological_structure(lat, [lat.index(s) for s in labels])


# kind -> name -> builder; the insertion order is the listing order of
# `coframes fixtures`.  Names are unique across kinds.
FIXTURES: dict[str, dict[str, Callable[[], Any]]] = {
    "lattice": {
        "CHAIN1": lambda: build_lattice("CHAIN1", ("0",), []),
        "CHAIN2": lambda: _chain("CHAIN2", ("0", "1")),
        "CHAIN3": lambda: _chain("CHAIN3", ("0", "m", "1")),
        "CHAIN4": lambda: _chain("CHAIN4", ("0", "a", "b", "1")),
        "CHAIN5": lambda: _chain("CHAIN5", ("0", "a", "b", "c", "1")),
        "BOOL1": lambda: powerset_lattice(("0",)),
        "BOOL2": lambda: powerset_lattice(("0", "1")),
        "BOOL3": lambda: powerset_lattice(("1", "2", "3")),
        "PX3": lambda: powerset_lattice(("1", "2", "3")),
        "BOOL4": lambda: powerset_lattice(("1", "2", "3", "4")),
        "M3": lambda: build_lattice(
            "M3",
            ("0", "a", "b", "c", "1"),
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        ),
        "N5": lambda: build_lattice(
            "N5",
            ("0", "a", "b", "c", "1"),
            [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        ),
        # downsets of the poset a < c > b: a 5-element non-Boolean distributive
        # lattice whose only complemented elements are the bounds
        "V5": lambda: downset_lattice(
            poset_from_covers(("a", "b", "c"), [("a", "c"), ("b", "c")]), "V5"
        ),
    },
    "convergence": {
        "SIERP_LIM": lambda: _limits(
            "BOOL2", {"{}": "{0,1}", "{0}": "{0}", "{1}": "{0,1}", "{0,1}": "{0}"}
        ),
        "DISCRETE_BOOL2": lambda: discrete_structure(lattice_fixture("BOOL2")),
        "CHAOTIC_BOOL2": lambda: chaotic_structure(lattice_fixture("BOOL2")),
        "PX3_PRETOP": lambda: lim_of_nu(adherence_fixture("PX3_ADH")),
        "CHAIN3_NONCLASSICAL": lambda: _limits("CHAIN3", {"0": "1", "m": "1", "1": "m"}),
        "CHAIN3_PRETOP_GAP": lambda: _limits("CHAIN3", {"0": "1", "m": "m", "1": "0"}),
    },
    "adherence": {
        # closure operator of the Sierpinski topology: point 0 closed, point 1 dense
        "SIERP_ADH": lambda: _atom_adherences("BOOL2", {"{0}": "{0}", "{1}": "{0,1}"}),
        # adherences drift along 1 -> 2 -> 3: only down-closed tails are fixed
        "PX3_ADH": lambda: _atom_adherences(
            "PX3", {"{1}": "{1,2}", "{2}": "{2,3}", "{3}": "{3}"}
        ),
        "IDENTITY_ADH_BOOL2": lambda: AdherenceStructure(
            lattice_fixture("BOOL2"), (0, 1, 2, 3)
        ),
        "VOID_ADH_BOOL2": lambda: AdherenceStructure(lattice_fixture("BOOL2"), (0,) * 4),
    },
    "topology": {
        "SIERP_TOP": lambda: _closed("BOOL2", ("{}", "{0}", "{0,1}")),
        "INDISCRETE_TOP": lambda: _closed("BOOL2", ("{}", "{0,1}")),
        "DISCRETE_TOP": lambda: _closed("BOOL2", ("{}", "{0}", "{1}", "{0,1}")),
        "PX3_TOP": lambda: _closed("PX3", ("{}", "{3}", "{2,3}", "{1,2,3}")),
    },
    "space": {
        # point 1 is dense: its singleton filter also converges to 0
        "SIERP_SPACE": lambda: convergence_space(("0", "1"), (0b11, 0b01, 0b11, 0b01)),
        "ONE_POINT_SPACE": lambda: convergence_space(("*",), (1, 1)),
        "EMPTY_SPACE": lambda: convergence_space((), (0,)),
        # the discrete topology: singleton filters converge to their point,
        # the whole-carrier filter to nothing, the improper filter everywhere
        "DISCRETE2_SPACE": lambda: convergence_space(("0", "1"), (0b11, 0b01, 0b10, 0b00)),
        "CHAOTIC2_SPACE": lambda: convergence_space(("0", "1"), (0b11,) * 4),
        # both singleton filters converge everywhere but their intersection
        # converges nowhere: fails the pairwise limit law
        "NONLIMIT2_SPACE": lambda: convergence_space(("0", "1"), (0b11, 0b11, 0b11, 0b00)),
        "PX3_SPACE": lambda: pt_space(convergence_fixture("PX3_PRETOP")),
    },
}

_built: dict[str, Any] = {}  # fixture name -> the object built on its first lookup


def fixture(kind: str, name: str) -> Any:
    """The fixture ``name`` of ``kind``, built on its first lookup and kept
    (same object every call)."""
    builders = FIXTURES[kind]
    if name not in builders:
        raise DocumentError(f"unknown {kind} fixture {name!r}")
    built = _built.get(name)
    if built is None:
        built = _built[name] = builders[name]()
    return built


def lattice_fixture(name: str) -> FiniteLattice:
    """Look up a named lattice from the corpus (same object every call)."""
    return fixture("lattice", name)


def lattice_fixture_names() -> tuple[str, ...]:
    return tuple(FIXTURES["lattice"])


def convergence_fixture(name: str) -> ConvergenceStructure:
    return fixture("convergence", name)


def convergence_fixture_names() -> tuple[str, ...]:
    return tuple(FIXTURES["convergence"])


def adherence_fixture(name: str) -> AdherenceStructure:
    return fixture("adherence", name)


def adherence_fixture_names() -> tuple[str, ...]:
    return tuple(FIXTURES["adherence"])


def topology_fixture(name: str) -> TopologicalStructure:
    return fixture("topology", name)


def topology_fixture_names() -> tuple[str, ...]:
    return tuple(FIXTURES["topology"])


def space_fixture(name: str) -> FiniteConvergenceSpace:
    return fixture("space", name)


def space_fixture_names() -> tuple[str, ...]:
    return tuple(FIXTURES["space"])


# ---------------------------------------------------------------------------
# random generators (always driven by an explicit random.Random)


def _draw_covers(
    rng: random.Random, size: int, edge_prob: float = 0.4
) -> tuple[tuple[int, int], ...]:
    """Random cover pairs ``i < j`` on ``size`` points: one ``rng.random()``
    per pair, in lexicographic order."""
    pairs = ((i, j) for i in range(size) for j in range(i + 1, size))
    return tuple(pair for pair in pairs if rng.random() < edge_prob)


def _poset(size: int, covers: tuple[tuple[int, int], ...]) -> FinitePoset:
    return poset_from_covers(tuple(f"p{i}" for i in range(size)), covers)


def random_poset(rng: random.Random, size: int, edge_prob: float = 0.4) -> FinitePoset:
    """A random labeled poset: edges only go up in index order, so acyclic."""
    return _poset(size, _draw_covers(rng, size, edge_prob))


def random_downset_lattice(
    rng: random.Random,
    max_elements: int = 8,
    max_poset: int = 4,
    carriers: dict | None = None,
) -> FiniteLattice:
    """A random distributive lattice (downsets of a random small poset).

    Posets are drawn as by :func:`random_poset` until one has at most
    ``max_elements`` down-sets.  ``carriers`` is a pool owned by the caller
    (a fresh one when ``None``): it maps each draw ``(size, covers)`` to the
    entry for the poset's down-rows, which holds the down-set count and the
    carrier, built when a draw of that poset is first accepted.  So a
    repeated draw builds nothing, equal posets share one carrier, and the
    pool changes neither the draws nor the carriers returned.  Bounds that
    no draw meets raise :class:`BudgetExceeded` before the first draw."""
    if max_poset < 2:
        raise BudgetExceeded(f"max_poset is {max_poset}; posets are drawn on at least 2 points")
    if max_elements < 3:
        raise BudgetExceeded(
            f"max_elements is {max_elements}; every poset on 2 or more points "
            "has at least 3 down-sets"
        )
    if carriers is None:
        carriers = {}
    while True:
        size = rng.randint(2, max_poset)
        key = (size, _draw_covers(rng, size))
        entry = carriers.get(key)
        if entry is None:
            poset = _poset(*key)
            entry = carriers.setdefault(poset.below, [len(poset.downsets), poset])
            carriers[key] = entry
        if entry[0] <= max_elements:
            if isinstance(entry[1], FinitePoset):
                entry[1] = downset_lattice(entry[1])
            return entry[1]


def random_antitone_table(
    rng: random.Random, lattice: FiniteLattice, *, pretopological: bool = False
) -> tuple[int, ...]:
    """A uniform-per-step random antitone self-map table.

    Processing a linear extension bottom-up, each value is drawn uniformly
    from the down-set of the meet of the already-fixed values at the lower
    covers (antitone: bigger inputs get smaller outputs).  ``pretopological``
    fixes values as in :func:`enumerate_antitone_tables`; a fixed value draws
    nothing from ``rng``.
    """
    table = [0] * lattice.n
    covers, down = lattice.covers, lattice.down
    meet, top = lattice.meet, lattice.top
    for h in lattice.rank_order():
        bound = top
        for g in covers[h]:
            bound = meet(bound, table[g])
        if pretopological and len(covers[h]) != 1:
            table[h] = bound
        else:
            # the same draw as rng.choice of the members of down[bound] in
            # increasing index order, without listing them
            below = down[bound]
            for _ in range(rng.randrange(below.bit_count())):
                below &= below - 1
            table[h] = (below & -below).bit_length() - 1
    return tuple(table)


def enumerate_antitone_tables(
    lattice: FiniteLattice, *, pretopological: bool = False
) -> Iterator[tuple[int, ...]]:
    """All antitone self-map tables, in a deterministic order: along a
    linear extension, each value ranges over the down-set of the meet of the
    values at the lower covers, in increasing index order (the last position
    varies fastest).

    ``pretopological`` fixes the value at every element that is not
    join-irreducible to that meet: top at the bottom, and ``t(a) ^ t(b)`` at
    each ``x = a v b`` (the recurrence of ``s_infinity(..., "pretop")``).  The
    tables stay antitone on any carrier; on a distributive one they are
    exactly the pretopological tables, one per antitone map from the
    join-irreducibles, whose value at a join-irreducible ranges over the
    down-set of the value at its one lower cover.

    The tables are listed by a mixed-radix odometer (Knuth, TAOCP 4A,
    7.2.1.1, Algorithm M) whose radix at a position depends on the values
    before it: descend along the rank order, folding each meet, with a fixed
    position taking it and a branching one its first option; yield; then
    advance the last branching position with an option left, by clearing the
    lowest bit (its current option) of its mask of options left, and descend
    again from the position after it.  A table costs at most one meet per
    cover pair, and no recursion."""
    covers, down = lattice.covers, lattice.down
    meet, top = lattice.meet, lattice.top
    # per position along the rank order: the element, its lower covers, and
    # whether it branches
    steps = [
        (h, covers[h], not pretopological or len(covers[h]) == 1)
        for h in lattice.rank_order()
    ]
    size = len(steps)
    left = [0] * size  # options left at each position; 0 where it is fixed
    table = [0] * lattice.n
    pos = 0
    while True:
        for p in range(pos, size):
            h, lows, branches = steps[p]
            bound = top
            for g in lows:
                bound = meet(bound, table[g])
            if branches:
                left[p] = opts = down[bound]
                table[h] = (opts & -opts).bit_length() - 1
            else:
                table[h] = bound
        yield tuple(table)
        pos = size - 1
        while pos >= 0 and not left[pos] & left[pos] - 1:
            pos -= 1
        if pos < 0:
            return
        left[pos] = opts = left[pos] & left[pos] - 1
        table[steps[pos][0]] = (opts & -opts).bit_length() - 1
        pos += 1
