"""Counterexample search over convergence structures on small coframes.

Conjectures come from a deliberately tiny grammar: a conjunction of named
class predicates, optionally implying another conjunction
(``"centered & pretopological => topological"``).  The search tries the
built-in fixture corpus first, then exhaustively sweeps every structure on
the carriers of :func:`small_coframes` up to a size bound (down-set lattices
of posets with at most five points: every distributive lattice with at most
six elements, but not the larger ones with more than five join-irreducibles,
such as the 7-element chain), and finally draws seeded random samples from
slightly larger carriers.  Results are a pure function of the arguments.

Each candidate is judged through :class:`~coframes.convergence.ClassFlags`:
only the flags the conjecture names are computed, cheapest first, and only
until the verdict is known.  Every flag is exact at every carrier size; a
full classification runs once, for the reported witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Iterator, Mapping

from .convergence import CLASS_COST_ORDER, ClassFlags, ConvergenceStructure, classify
from .documents import convergence_to_doc
from .errors import BudgetExceeded, ConjectureError
from .fixtures import (
    convergence_fixture,
    convergence_fixture_names,
    enumerate_antitone_tables,
    random_antitone_table,
    random_downset_lattice,
)
from .lattice import FiniteLattice, build_lattice, downset_lattice, poset_from_covers

__all__ = [
    "Conjecture",
    "PREDICATES",
    "SearchResult",
    "parse_conjecture",
    "search_counterexample",
]

PREDICATES = (
    "classical",
    "limit",
    "strict",
    "pretopological",
    "centered",
    "topological",
)

_EXHAUSTIVE_STRUCTURE_CAP = 500_000


@dataclass(frozen=True)
class Conjecture:
    """``antecedent => consequent`` over class predicates; an empty
    antecedent claims the consequent holds for every structure."""

    antecedent: tuple[str, ...]
    consequent: tuple[str, ...]

    def __post_init__(self) -> None:
        # refuted_by reads only the names it knows, so unknown ones must not
        # get this far
        for name in self.antecedent + self.consequent:
            if name not in PREDICATES:
                raise ConjectureError(
                    f"unknown predicate {name!r}; choose from {', '.join(PREDICATES)}"
                )

    def text(self) -> str:
        rhs = " & ".join(self.consequent)
        if not self.antecedent:
            return rhs
        return " & ".join(self.antecedent) + " => " + rhs

    def refuted_by(self, flags: Mapping[str, bool]) -> bool:
        """Whether the flags satisfy the antecedent and break the consequent.

        The named flags are read cheapest first (``CLASS_COST_ORDER``), and
        reading stops once an antecedent flag is false or every consequent
        flag is true, so a lazy mapping such as :class:`ClassFlags` computes
        only what the answer needs.
        """
        unread = set(self.consequent)
        broken = False  # some consequent flag is false
        for name in CLASS_COST_ORDER:
            in_antecedent = name in self.antecedent
            if not in_antecedent and (broken or name not in unread):
                continue
            value = flags[name]
            if in_antecedent and not value:
                return False
            if name in unread:
                unread.discard(name)
                broken = not value or broken
                if not unread and not broken:
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


def _closed_relations(k: int) -> Iterator[frozenset[tuple[int, int]]]:
    """Every transitively closed strict order on ``k`` points whose edges go
    up in index order.  Every poset admits a linear extension, so up to
    isomorphism this reaches all of them."""
    pairs = list(combinations(range(k), 2))
    seen: set[frozenset[tuple[int, int]]] = set()
    for mask in range(1 << len(pairs)):
        chosen = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        changed = True
        while changed:
            changed = False
            for (a, b) in list(chosen):
                for (c, d) in list(chosen):
                    if b == c and (a, d) not in chosen:
                        chosen.add((a, d))
                        changed = True
        key = frozenset(chosen)
        if key not in seen:
            seen.add(key)
            yield key


def small_coframes(max_elements: int) -> Iterator[FiniteLattice]:
    """Distributive lattices with at most ``max_elements`` elements, as
    down-set lattices of posets with at most five points (possibly with
    isomorphic repeats), smallest carriers first.

    A finite distributive lattice is the down-set lattice of its
    join-irreducibles, so this reaches every carrier with at most five of
    them: all distributive lattices up to six elements, but from seven
    elements on not those with more join-irreducibles, starting with the
    7-element chain."""
    emitted: set[tuple[tuple[int, ...], ...]] = set()
    yield build_lattice("D0", ("e",), [])
    for k in range(1, min(max_elements - 1, 5) + 1):
        labels = tuple(f"p{i}" for i in range(k))
        batch = []
        for relation in _closed_relations(k):
            poset = poset_from_covers(
                labels, [(labels[a], labels[b]) for a, b in sorted(relation)]
            )
            lat = downset_lattice(poset, f"D{k}")
            if lat.n > max_elements:
                continue
            key = tuple(sorted(tuple(sorted(lat.up)),))
            if key in emitted:
                continue
            emitted.add(key)
            batch.append(lat)
        yield from sorted(batch, key=lambda lat: lat.n)


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

    Order: the fixture corpus, then every structure on every distributive
    lattice with at most ``max_lattice`` elements, then ``budget`` seeded
    random structures on slightly larger carriers.
    """
    if max_lattice < 1:
        raise ConjectureError("--max-lattice must be at least 1")
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

    for lat in small_coframes(max_lattice):
        lattices += 1
        for tab in enumerate_antitone_tables(lat):
            structures += 1
            if structures > _EXHAUSTIVE_STRUCTURE_CAP:
                raise BudgetExceeded(
                    f"more than {_EXHAUSTIVE_STRUCTURE_CAP} candidate structures; "
                    "lower --max-lattice"
                )
            cs = ConvergenceStructure(lat, tab)
            if conjecture.refuted_by(ClassFlags(cs)):
                return result(f"enumerated:{lat.name}[{lat.n}]", cs)

    rng = random.Random(seed)
    for i in range(budget):
        lat = random_downset_lattice(rng, max_elements=max(8, max_lattice))
        cs = ConvergenceStructure(lat, random_antitone_table(rng, lat))
        structures += 1
        if conjecture.refuted_by(ClassFlags(cs)):
            return result(f"random:{i}", cs)

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
