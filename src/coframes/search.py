"""Counterexample search over convergence structures on small coframes.

Conjectures come from a deliberately tiny grammar: a conjunction of named
class predicates, optionally implying another conjunction
(``"centered & pretopological => topological"``).  The search tries the
built-in fixture corpus first, then exhaustively sweeps the carriers of
:func:`small_coframes` up to a size bound (every distributive lattice of
that size, once up to isomorphism), and finally draws seeded random
structures on the down-set lattices of random 2- to 4-point posets with at
most ``max(8, max_lattice)`` elements, so many of them are carriers the sweep
has already covered.  Within one call each random carrier's topologies are
listed once and each distinct structure is judged once.  Results are a pure
function of the arguments.

Candidates come from the antecedent's class, as every structure outside it
leaves the conjecture standing: the structures of the topologies when the
antecedent names ``topological``, else the pretopological tables when it
names ``pretopological`` or both ``strict`` and ``limit``, and every
antitone table otherwise.

Each conjecture compiles, once, a read plan: the flags it names, cheapest
first, each with its role.  A fixture is judged by walking the plan over its
:class:`~coframes.convergence.ClassFlags`; the candidates of the sweep and of
the random phase are tables, judged by the plan bound to their carrier once
per carrier per call (:meth:`Conjecture.judge`).  Either way only the flags
the conjecture names are computed, in the same order, and only until the
verdict is known, and a table's structure is built only for a flag that
reads one (``centered``, ``topological``) or for the witness.  Every flag is
exact at every carrier size; a full classification runs once, for the
reported witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from functools import partial
from itertools import groupby, permutations, product
from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping

from .convergence import (
    CLASS_COST_ORDER,
    ClassFlags,
    ConvergenceStructure,
    StructureClass,
    classify,
    table_class_tests,
)
from .documents import convergence_to_doc
from .errors import BudgetExceeded, ConjectureError
from .fixtures import (
    convergence_fixture,
    convergence_fixture_names,
    enumerate_antitone_tables,
    random_antitone_table,
    random_downset_lattice,
)
from .lattice import FiniteLattice, FinitePoset, bits, downset_lattice
from .topology import TopologicalStructure, enumerate_topologies, lim_of_C

__all__ = [
    "Conjecture",
    "PREDICATES",
    "SearchResult",
    "parse_conjecture",
    "search_counterexample",
]

PREDICATES = tuple(f.name for f in fields(StructureClass))

_EXHAUSTIVE_STRUCTURE_CAP = 500_000

# downset_lattice takes posets of at most 16 points, and the 17-chain is
# the one carrier of 17 elements that needs all of them
_LARGEST_CARRIER = 17


@dataclass(frozen=True)
class Conjecture:
    """``antecedent => consequent`` over class predicates; an empty
    antecedent claims the consequent holds for every structure.

    Construction compiles the conjecture's read plan: the named flags
    cheapest first (``CLASS_COST_ORDER``), each with whether the antecedent
    names it, whether the consequent does, and whether it is the last flag
    the consequent names.  :meth:`refuted_by` walks the plan over a mapping
    of flags, :meth:`judge` over the tables of one carrier."""

    antecedent: tuple[str, ...]
    consequent: tuple[str, ...]

    def __post_init__(self) -> None:
        # the plan holds only the names it knows, so unknown ones must not
        # get this far
        for name in self.antecedent + self.consequent:
            if name not in PREDICATES:
                raise ConjectureError(
                    f"unknown predicate {name!r}; choose from {', '.join(PREDICATES)}"
                )
        named = [n for n in CLASS_COST_ORDER if n in self.antecedent + self.consequent]
        last = max((i for i, n in enumerate(named) if n in self.consequent), default=-1)
        plan = tuple(
            (n, n in self.antecedent, n in self.consequent, i == last)
            for i, n in enumerate(named)
        )
        # not fields: equality, hashing, repr and asdict see only the two sides
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(
            self, "_reads", tuple((itemgetter(n), *roles) for n, *roles in plan)
        )

    def text(self) -> str:
        rhs = " & ".join(self.consequent)
        if not self.antecedent:
            return rhs
        return " & ".join(self.antecedent) + " => " + rhs

    def refuted_by(self, flags: Mapping[str, bool]) -> bool:
        """Whether the flags satisfy the antecedent and break the consequent.

        The named flags are read along the read plan, cheapest first
        (``CLASS_COST_ORDER``), and reading stops once an antecedent flag is
        false or every consequent flag is true, so a lazy mapping such as
        :class:`ClassFlags` computes only what the answer needs.
        """
        return _walk(self._reads, flags)

    def judge(self, lattice: FiniteLattice) -> Callable[[tuple[int, ...]], bool]:
        """``refuted_by`` for the antitone tables on ``lattice``, with the
        read plan bound to the carrier once: the verdict on a table is
        ``refuted_by(ClassFlags(structure))`` on its structure, read flag by
        flag in the same order, and a structure is built only for
        ``centered`` or ``topological`` (see
        :func:`~coframes.convergence.table_class_tests`)."""
        tests = table_class_tests(lattice, [name for name, *_ in self._plan])
        steps = tuple((test, *roles) for test, (_, *roles) in zip(tests, self._plan))
        return partial(_walk, steps)


# a step of a read plan: the read, whether the antecedent names its flag,
# whether the consequent does, and whether it is the consequent's last flag
_Step = tuple[Callable[[Any], bool], bool, bool, bool]


def _walk(steps: tuple[_Step, ...], subject: Any) -> bool:
    """Walk a read plan whose reads take ``subject``: whether the flags read
    satisfy the antecedent and break the consequent.  Once a consequent flag
    is false only antecedent flags are read."""
    broken = False  # some consequent flag is false
    for read, in_antecedent, in_consequent, last in steps:
        if broken and not in_antecedent:
            continue
        value = read(subject)
        if in_antecedent and not value:
            return False
        if in_consequent and not value:
            broken = True
        elif last and not broken:
            return False
    return broken


def _parse_conjunction(text: str, side: str) -> tuple[str, ...]:
    names = [part.strip() for part in text.split("&")]
    if any(not name for name in names):
        raise ConjectureError(f"empty predicate in the {side} of {text!r}")
    seen: list[str] = []
    for name in names:
        if name not in seen:
            seen.append(name)
    return tuple(seen)


def parse_conjecture(text: str) -> Conjecture:
    if not isinstance(text, str) or not text.strip():
        raise ConjectureError("empty conjecture")
    parts = text.split("=>")
    if len(parts) > 2:
        raise ConjectureError('at most one "=>" is allowed')
    if len(parts) == 1:
        return Conjecture((), _parse_conjunction(parts[0], "claim"))
    return Conjecture(
        _parse_conjunction(parts[0], "antecedent"),
        _parse_conjunction(parts[1], "consequent"),
    )


# ---------------------------------------------------------------------------
# carrier enumeration


def _canonical_form(below: tuple[int, ...]) -> tuple[int, ...]:
    """A complete isomorphism invariant of a poset given by reflexive
    down-rows: the least relabelled row tuple over the orderings that sort
    the points by (down-degree, up-degree).

    An isomorphism keeps both degrees, so it maps these orderings of one
    poset onto those of the other; only points in one degree block are
    permuted."""
    k = len(below)
    up_degree = [sum(row >> i & 1 for row in below) for i in range(k)]

    def degrees(i: int) -> tuple[int, int]:
        return below[i].bit_count(), up_degree[i]

    def relabelled(order: list[int]) -> tuple[int, ...]:
        position = [0] * k
        for new, old in enumerate(order):
            position[old] = new
        return tuple(sum(1 << position[j] for j in bits(below[old])) for old in order)

    blocks = [
        tuple(block) for _, block in groupby(sorted(range(k), key=degrees), key=degrees)
    ]
    return min(
        relabelled([p for block in choice for p in block])
        for choice in product(*map(permutations, blocks))
    )


def _posets(max_downsets: int) -> list[FinitePoset]:
    """Every poset with at most ``max_downsets`` down-sets, once up to
    isomorphism, fewest points first.

    A poset on ``k + 1`` points is one on ``k`` points with a maximal point
    added over one of its down-sets, so the posets grow a point at a time.
    A new point keeps every old down-set and adds one per old down-set that
    holds its strict down-set, so the count never falls and a poset past the
    bound is not grown further."""
    level = [FinitePoset((), ())] if max_downsets >= 1 else []
    found = list(level)
    while level:
        k = level[0].n
        labels = tuple(f"p{i}" for i in range(k + 1))
        seen: set[tuple[int, ...]] = set()
        grown = []
        for poset in level:
            downsets = poset.downsets
            for below in downsets:
                added = sum(1 for d in downsets if d & below == below)
                if len(downsets) + added > max_downsets:
                    continue
                rows = poset.below + (below | 1 << k,)
                form = _canonical_form(rows)
                if form not in seen:
                    seen.add(form)
                    grown.append(FinitePoset(labels, rows))
        found += grown
        level = grown
    return found


def _check_carrier_bound(max_elements: int) -> None:
    if max_elements > _LARGEST_CARRIER:
        raise BudgetExceeded(
            f"carriers above {_LARGEST_CARRIER} elements are not enumerated; "
            "lower --max-lattice"
        )


def small_coframes(max_elements: int) -> Iterator[FiniteLattice]:
    """Every distributive lattice with at most ``max_elements`` elements,
    once up to isomorphism, smallest carriers first.

    By Birkhoff's theorem a finite distributive lattice is the down-set
    lattice of its poset of join-irreducibles, and two are isomorphic iff
    those posets are, so the carriers are the down-set lattices of
    :func:`_posets`.  Their counts per size are OEIS A006982: 1, 1, 1, 2,
    3, 5, 8, 15, 26 for sizes 1 to 9.  A carrier is built only when it is
    reached.  Bounds above 17 raise :class:`BudgetExceeded` before any
    poset is listed."""
    _check_carrier_bound(max_elements)
    for poset in sorted(_posets(max_elements), key=lambda p: len(p.downsets)):
        yield downset_lattice(poset, f"D{poset.n}")


# ---------------------------------------------------------------------------
# candidate structures from the antecedent's class


def _names_pretopological(antecedent: tuple[str, ...]) -> bool:
    """Whether the antecedent implies pretopological (= strict and limit)."""
    return "pretopological" in antecedent or {"strict", "limit"} <= set(antecedent)


def _candidates(antecedent: tuple[str, ...], lat: FiniteLattice) -> Iterator[tuple[int, ...]]:
    """The table of every structure on the carrier that can satisfy the
    antecedent: the topological ones when it names ``topological``, else the
    pretopological ones when it implies ``pretopological``, else every
    antitone table."""
    if "topological" in antecedent:
        return (lim_of_C(ts).limtab for ts in enumerate_topologies(lat))
    return enumerate_antitone_tables(lat, pretopological=_names_pretopological(antecedent))


def _random_candidate(
    antecedent: tuple[str, ...],
    rng: random.Random,
    lat: FiniteLattice,
    topologies: dict[FiniteLattice, list[TopologicalStructure]],
    judged: set[tuple[FiniteLattice, Any]],
) -> tuple[int, ...] | None:
    """The table of one seeded draw from the class of :func:`_candidates`
    on ``lat``, or ``None`` when the same structure on ``lat`` was drawn,
    and so judged, before.

    ``topologies`` (each carrier's topologies, listed on its first draw) and
    ``judged`` (the carrier and draw of every table returned) are owned by
    the caller, like the carrier pool of
    :func:`~coframes.fixtures.random_downset_lattice`.  They change neither
    the draws nor the tables: ``rng.choice`` on an equal list picks the
    same position."""
    if "topological" in antecedent:
        if lat not in topologies:
            topologies[lat] = list(enumerate_topologies(lat))
        drawn: Any = rng.choice(topologies[lat])
    else:
        drawn = random_antitone_table(
            rng, lat, pretopological=_names_pretopological(antecedent)
        )
    if (lat, drawn) in judged:
        return None
    judged.add((lat, drawn))
    if "topological" in antecedent:
        return lim_of_C(drawn).limtab
    return drawn


# ---------------------------------------------------------------------------
# the search itself


@dataclass(frozen=True)
class SearchResult:
    conjecture: Conjecture
    outcome: str  # "counterexample" | "exhausted"
    origin: str | None
    counterexample: ConvergenceStructure | None
    flags: dict[str, bool] | None
    structures_tested: int
    lattices_tested: int
    max_lattice: int

    def witness_document(self) -> dict[str, Any] | None:
        if self.counterexample is None:
            return None
        return {
            "conjecture": self.conjecture.text(),
            "origin": self.origin,
            "flags": self.flags,
            "structure": convergence_to_doc(self.counterexample),
        }


def search_counterexample(
    conjecture: Conjecture,
    *,
    max_lattice: int = 5,
    seed: int = 0,
    budget: int = 200,
) -> SearchResult:
    """First counterexample in canonical order, or exhaustion.

    Order: the fixture corpus, then every structure of the antecedent's
    class on every distributive lattice with at most ``max_lattice``
    elements (each once up to isomorphism), then ``budget`` seeded random
    structures of that class on the down-set lattices of random 2- to
    4-point posets with at most ``max(8, max_lattice)`` elements.  Every
    candidate is judged on the whole conjecture, antecedent included, and
    counts towards the cap of the exhaustive phase; a random draw that
    repeats an earlier one still counts, and keeps its earlier verdict.  A
    ``max_lattice`` above 17 raises :class:`BudgetExceeded` before any
    candidate is tried.
    """
    if max_lattice < 1:
        raise ConjectureError("--max-lattice must be at least 1")
    _check_carrier_bound(max_lattice)
    structures = 0
    lattices = 0

    def result(origin: str, cs: ConvergenceStructure) -> SearchResult:
        return SearchResult(
            conjecture=conjecture,
            outcome="counterexample",
            origin=origin,
            counterexample=cs,
            flags=classify(cs).flags(),
            structures_tested=structures,
            lattices_tested=lattices,
            max_lattice=max_lattice,
        )

    for name in convergence_fixture_names():
        cs = convergence_fixture(name)
        structures += 1
        if conjecture.refuted_by(ClassFlags(cs)):
            return result(f"fixture:{name}", cs)

    antecedent = conjecture.antecedent
    for lat in small_coframes(max_lattice):
        lattices += 1
        judge = conjecture.judge(lat)
        for tab in _candidates(antecedent, lat):
            structures += 1
            if structures > _EXHAUSTIVE_STRUCTURE_CAP:
                raise BudgetExceeded(
                    f"more than {_EXHAUSTIVE_STRUCTURE_CAP} candidate structures; "
                    "lower --max-lattice"
                )
            if judge(tab):
                witness = ConvergenceStructure(lat, tab)
                return result(f"enumerated:{lat.name}[{lat.n}]", witness)

    # the carrier pool, each carrier's topologies and judge, and the
    # structures judged live for this call only
    rng = random.Random(seed)
    carriers: dict = {}
    topologies: dict = {}
    judges: dict = {}
    judged: set = set()
    for i in range(budget):
        lat = random_downset_lattice(rng, max(8, max_lattice), carriers=carriers)
        tab = _random_candidate(antecedent, rng, lat, topologies, judged)
        structures += 1
        if tab is None:
            continue
        if lat not in judges:
            judges[lat] = conjecture.judge(lat)
        if judges[lat](tab):
            return result(f"random:{i}", ConvergenceStructure(lat, tab))

    return SearchResult(
        conjecture=conjecture,
        outcome="exhausted",
        origin=None,
        counterexample=None,
        flags=None,
        structures_tested=structures,
        lattices_tested=lattices,
        max_lattice=max_lattice,
    )
