"""Built-in corpus: named lattices and structures, plus seeded random
generators used by the law suites and the search command.

Fixture constructors are cached so that repeated lookups return the same
carrier object (structures compare carriers by identity).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Iterator

from .adherence import (
    AdherenceStructure,
    adherence_from_atom_values,
    random_adherence_structure,
)
from .convergence import ConvergenceStructure
from .errors import DocumentError
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
    "random_convergence_structure",
    "enumerate_antitone_tables",
]


def _chain(name: str, labels: tuple[str, ...]) -> FiniteLattice:
    return build_lattice(
        name, labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    )


@lru_cache(maxsize=None)
def _make_lattice(name: str) -> FiniteLattice:
    if name == "CHAIN1":
        return build_lattice("CHAIN1", ("0",), [])
    if name == "CHAIN2":
        return _chain("CHAIN2", ("0", "1"))
    if name == "CHAIN3":
        return _chain("CHAIN3", ("0", "m", "1"))
    if name == "CHAIN4":
        return _chain("CHAIN4", ("0", "a", "b", "1"))
    if name == "CHAIN5":
        return _chain("CHAIN5", ("0", "a", "b", "c", "1"))
    if name == "BOOL1":
        return powerset_lattice(("0",))
    if name == "BOOL2":
        return powerset_lattice(("0", "1"))
    if name in ("BOOL3", "PX3"):
        return powerset_lattice(("1", "2", "3"))
    if name == "BOOL4":
        return powerset_lattice(("1", "2", "3", "4"))
    if name == "M3":
        return build_lattice(
            "M3",
            ("0", "a", "b", "c", "1"),
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        )
    if name == "N5":
        return build_lattice(
            "N5",
            ("0", "a", "b", "c", "1"),
            [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        )
    if name == "V5":
        # downsets of the poset a < c > b: a 5-element non-Boolean distributive
        # lattice whose only complemented elements are the bounds
        poset = poset_from_covers(("a", "b", "c"), [("a", "c"), ("b", "c")])
        return downset_lattice(poset, "V5")
    raise DocumentError(f"unknown lattice fixture {name!r}")


_LATTICE_NAMES = (
    "CHAIN1",
    "CHAIN2",
    "CHAIN3",
    "CHAIN4",
    "CHAIN5",
    "BOOL1",
    "BOOL2",
    "BOOL3",
    "PX3",
    "BOOL4",
    "M3",
    "N5",
    "V5",
)


def lattice_fixture(name: str) -> FiniteLattice:
    """Look up a named lattice from the corpus (same object every call)."""
    if name not in _LATTICE_NAMES:
        raise DocumentError(f"unknown lattice fixture {name!r}")
    return _make_lattice(name)


def lattice_fixture_names() -> tuple[str, ...]:
    return _LATTICE_NAMES


# ---------------------------------------------------------------------------
# structure fixtures


def discrete_structure(lattice: FiniteLattice) -> ConvergenceStructure:
    """Nothing converges anywhere: every filter's limit is bottom."""
    return ConvergenceStructure(lattice, (lattice.bottom,) * lattice.n)


def chaotic_structure(lattice: FiniteLattice) -> ConvergenceStructure:
    """Everything converges everywhere: every filter's limit is top."""
    return ConvergenceStructure(lattice, (lattice.top,) * lattice.n)


def _table_from_labels(
    lattice: FiniteLattice, pairs: dict[str, str]
) -> tuple[int, ...]:
    return tuple(lattice.index(pairs[lattice.label(g)]) for g in range(lattice.n))


@lru_cache(maxsize=None)
def _make_convergence(name: str) -> ConvergenceStructure:
    if name == "SIERP_LIM":
        lat = lattice_fixture("BOOL2")
        return ConvergenceStructure(
            lat,
            _table_from_labels(
                lat,
                {"{}": "{0,1}", "{0}": "{0}", "{1}": "{0,1}", "{0,1}": "{0}"},
            ),
        )
    if name == "DISCRETE_BOOL2":
        return discrete_structure(lattice_fixture("BOOL2"))
    if name == "CHAOTIC_BOOL2":
        return chaotic_structure(lattice_fixture("BOOL2"))
    if name == "PX3_PRETOP":
        from .adherence import lim_of_nu

        return lim_of_nu(adherence_fixture("PX3_ADH"))
    if name == "CHAIN3_NONCLASSICAL":
        lat = lattice_fixture("CHAIN3")
        return ConvergenceStructure(
            lat, _table_from_labels(lat, {"0": "1", "m": "1", "1": "m"})
        )
    if name == "CHAIN3_PRETOP_GAP":
        lat = lattice_fixture("CHAIN3")
        return ConvergenceStructure(
            lat, _table_from_labels(lat, {"0": "1", "m": "m", "1": "0"})
        )
    raise DocumentError(f"unknown convergence fixture {name!r}")


_CONVERGENCE_NAMES = (
    "SIERP_LIM",
    "DISCRETE_BOOL2",
    "CHAOTIC_BOOL2",
    "PX3_PRETOP",
    "CHAIN3_NONCLASSICAL",
    "CHAIN3_PRETOP_GAP",
)


def convergence_fixture(name: str) -> ConvergenceStructure:
    if name not in _CONVERGENCE_NAMES:
        raise DocumentError(f"unknown convergence fixture {name!r}")
    return _make_convergence(name)


def convergence_fixture_names() -> tuple[str, ...]:
    return _CONVERGENCE_NAMES


@lru_cache(maxsize=None)
def _make_adherence(name: str) -> AdherenceStructure:
    if name == "SIERP_ADH":
        # closure operator of the Sierpinski topology: point 0 closed, point 1 dense
        lat = lattice_fixture("BOOL2")
        return adherence_from_atom_values(
            lat, [lat.index("{0}"), lat.index("{0,1}")]
        )
    if name == "PX3_ADH":
        # adherences drift along 1 -> 2 -> 3: only down-closed tails are fixed
        lat = lattice_fixture("PX3")
        values = {"{1}": "{1,2}", "{2}": "{2,3}", "{3}": "{3}"}
        from .adherence import complemented_atoms

        atoms = complemented_atoms(lat)
        return adherence_from_atom_values(
            lat, [lat.index(values[lat.label(a)]) for a in atoms]
        )
    if name == "IDENTITY_ADH_BOOL2":
        lat = lattice_fixture("BOOL2")
        return AdherenceStructure(lat, tuple(range(lat.n)))
    if name == "VOID_ADH_BOOL2":
        lat = lattice_fixture("BOOL2")
        return AdherenceStructure(lat, (lat.bottom,) * lat.n)
    raise DocumentError(f"unknown adherence fixture {name!r}")


_ADHERENCE_NAMES = (
    "SIERP_ADH",
    "PX3_ADH",
    "IDENTITY_ADH_BOOL2",
    "VOID_ADH_BOOL2",
)


def adherence_fixture(name: str) -> AdherenceStructure:
    if name not in _ADHERENCE_NAMES:
        raise DocumentError(f"unknown adherence fixture {name!r}")
    return _make_adherence(name)


def adherence_fixture_names() -> tuple[str, ...]:
    return _ADHERENCE_NAMES


@lru_cache(maxsize=None)
def _make_topology(name: str) -> TopologicalStructure:
    if name == "SIERP_TOP":
        lat = lattice_fixture("BOOL2")
        return topological_structure(
            lat, [lat.index(s) for s in ("{}", "{0}", "{0,1}")]
        )
    if name == "INDISCRETE_TOP":
        lat = lattice_fixture("BOOL2")
        return topological_structure(lat, [lat.bottom, lat.top])
    if name == "DISCRETE_TOP":
        lat = lattice_fixture("BOOL2")
        return topological_structure(lat, range(lat.n))
    if name == "PX3_TOP":
        lat = lattice_fixture("PX3")
        return topological_structure(
            lat, [lat.index(s) for s in ("{}", "{3}", "{2,3}", "{1,2,3}")]
        )
    raise DocumentError(f"unknown topology fixture {name!r}")


_TOPOLOGY_NAMES = ("SIERP_TOP", "INDISCRETE_TOP", "DISCRETE_TOP", "PX3_TOP")


def topology_fixture(name: str) -> TopologicalStructure:
    if name not in _TOPOLOGY_NAMES:
        raise DocumentError(f"unknown topology fixture {name!r}")
    return _make_topology(name)


def topology_fixture_names() -> tuple[str, ...]:
    return _TOPOLOGY_NAMES


@lru_cache(maxsize=None)
def _make_space(name: str):
    from .duality import convergence_space, pt_space

    if name == "SIERP_SPACE":
        # point 1 is dense: its singleton filter also converges to 0
        return convergence_space(("0", "1"), (0b11, 0b01, 0b11, 0b01))
    if name == "ONE_POINT_SPACE":
        return convergence_space(("*",), (1, 1))
    if name == "EMPTY_SPACE":
        return convergence_space((), (0,))
    if name == "DISCRETE2_SPACE":
        # the discrete topology: singleton filters converge to their point,
        # the whole-carrier filter to nothing, the improper filter everywhere
        return convergence_space(("0", "1"), (0b11, 0b01, 0b10, 0b00))
    if name == "CHAOTIC2_SPACE":
        return convergence_space(("0", "1"), (0b11,) * 4)
    if name == "NONLIMIT2_SPACE":
        # both singleton filters converge everywhere but their intersection
        # converges nowhere: fails the pairwise limit law
        return convergence_space(("0", "1"), (0b11, 0b11, 0b11, 0b00))
    if name == "PX3_SPACE":
        return pt_space(convergence_fixture("PX3_PRETOP"))
    raise DocumentError(f"unknown space fixture {name!r}")


_SPACE_NAMES = (
    "SIERP_SPACE",
    "ONE_POINT_SPACE",
    "EMPTY_SPACE",
    "DISCRETE2_SPACE",
    "CHAOTIC2_SPACE",
    "NONLIMIT2_SPACE",
    "PX3_SPACE",
)


def space_fixture(name: str):
    if name not in _SPACE_NAMES:
        raise DocumentError(f"unknown space fixture {name!r}")
    return _make_space(name)


def space_fixture_names() -> tuple[str, ...]:
    return _SPACE_NAMES


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
    pool changes neither the draws nor the carriers returned."""
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
    covers, members = lattice.covers, lattice.down_members
    meet, top = lattice.meet, lattice.top
    for h in lattice.rank_order():
        bound = top
        for g in covers[h]:
            bound = meet(bound, table[g])
        if pretopological and len(covers[h]) != 1:
            table[h] = bound
        else:
            table[h] = rng.choice(members[bound])
    return tuple(table)


def random_convergence_structure(
    rng: random.Random, lattice: FiniteLattice
) -> ConvergenceStructure:
    return ConvergenceStructure(lattice, random_antitone_table(rng, lattice))


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
    advance the last branching position with an option left and descend
    again from the position after it.  A table costs at most one meet per
    cover pair, and no recursion."""
    covers, members = lattice.covers, lattice.down_members
    meet, top = lattice.meet, lattice.top
    # per position along the rank order: the element, its lower covers, and
    # whether it branches
    steps = [
        (h, covers[h], not pretopological or len(covers[h]) == 1)
        for h in lattice.rank_order()
    ]
    size = len(steps)
    options: list[tuple[int, ...]] = [()] * size
    chosen = [0] * size  # index of the current option at a branching position
    table = [0] * lattice.n
    pos = 0
    while True:
        for p in range(pos, size):
            h, lows, branches = steps[p]
            bound = top
            for g in lows:
                bound = meet(bound, table[g])
            if branches:
                options[p] = opts = members[bound]
                chosen[p] = 0
                table[h] = opts[0]
            else:
                table[h] = bound
        yield tuple(table)
        pos = size - 1
        while pos >= 0 and (not steps[pos][2] or chosen[pos] + 1 == len(options[pos])):
            pos -= 1
        if pos < 0:
            return
        chosen[pos] += 1
        table[steps[pos][0]] = options[pos][chosen[pos]]
        pos += 1
