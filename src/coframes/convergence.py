"""Convergence structures on finite coframes.

A convergence structure assigns to every filter a limit element, antitone in
the filter order: finer filters converge to at least as much.  Since filters
on a finite lattice are principal, the structure is a table indexed by
generator: ``limtab[g]`` is the limit of the filter of elements above ``g``.

The module provides classification (classical / limit / strict /
pretopological / centered / topological), continuity and finality of coframe
morphisms, the one-step and iterated modifications that complete a structure
into a limit (or pretopological) one, final lifts along sinks, and points.
A structure builds its adherence tables, closed elements and points on first
use and keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import AxiomViolation, IterationBound, UnknownKind
from .filters import Filter
from .lattice import (
    FiniteLattice,
    LatticeMorphism,
    _trusted,
    bits,
    derived,
    require_distributive,
    require_same_carrier,
)

__all__ = [
    "ConvergenceStructure",
    "StructureClass",
    "ClassFlags",
    "CLASS_COST_ORDER",
    "ContinuityReport",
    "convergence_structure",
    "lim",
    "classify",
    "check_continuity",
    "s1",
    "s_infinity",
    "final_lift",
    "points",
    "S1_KINDS",
]


@dataclass(frozen=True, eq=False)
class ConvergenceStructure:
    """An antitone limit table on a finite distributive lattice.

    Validated on construction: the carrier must be distributive and the
    table antitone (producers of antitone tables, such as ``s1``, use the
    trusted constructor ``lattice._trusted``).  Instances are immutable;
    compare tables, not objects.
    """

    lattice: FiniteLattice
    limtab: tuple[int, ...]

    def __post_init__(self) -> None:
        lat = self.lattice
        tab = self.limtab
        if len(tab) != len(lat.elements) or min(tab) < 0 or max(tab) >= len(tab):
            raise AxiomViolation("convergence.table", "table does not match carrier")
        require_distributive(lat, "convergence structures")
        # antitone iff antitone along every cover pair a -< x
        up = lat.up
        for x, lows in enumerate(lat.covers):
            above = up[tab[x]]
            for a in lows:
                if not above >> tab[a] & 1:
                    raise AxiomViolation(
                        "convergence.antitone",
                        f"coarser filter at {lat.label(x)!r} converges to "
                        f"{lat.label(tab[x])!r}, not below {lat.label(tab[a])!r} "
                        f"at {lat.label(a)!r}",
                    )

    def __repr__(self) -> str:
        vals = ", ".join(
            f"{self.lattice.label(g)}->{self.lattice.label(v)}"
            for g, v in enumerate(self.limtab)
        )
        return f"ConvergenceStructure({self.lattice.name}: {vals})"

    # Derived tables, each built on first use and kept with the structure.

    @derived
    def adh0(self) -> tuple[int, ...]:
        """Raw adherence: join of limits over all filters meshing the element."""
        lat, tab = self.lattice, self.limtab
        rows = lat.nonzero_meet_rows
        return tuple(lat.join_of(tab[g] for g in bits(rows[l])) for l in range(lat.n))

    @derived
    def adh(self) -> tuple[int, ...]:
        """Adherence corrected to be infimum-determined by complemented elements."""
        lat, raw = self.lattice, self.adh0
        comp = lat.report.complemented
        return tuple(
            lat.meet_of(raw[a] for a in bits(lat.up[l] & comp)) for l in range(lat.n)
        )

    @derived
    def quasi_closed(self) -> tuple[int, ...]:
        """Elements whose raw adherence stays below them."""
        lat, raw = self.lattice, self.adh0
        return tuple(l for l in range(lat.n) if lat.leq(raw[l], l))

    @derived
    def closed(self) -> tuple[int, ...]:
        """The closed elements: the complemented quasi-closed ones."""
        comp = self.lattice.report.complemented
        return tuple(l for l in self.quasi_closed if comp >> l & 1)

    @derived
    def points(self) -> tuple[int, ...]:
        """The points: join-primes ``p`` whose filter converges above ``p``."""
        lat, tab = self.lattice, self.limtab
        return tuple(p for p in bits(lat.report.join_primes) if lat.leq(p, tab[p]))


def convergence_structure(
    lattice: FiniteLattice, limtab: Sequence[int]
) -> ConvergenceStructure:
    """The public validating constructor: accepts any sequence of indices
    and raises as :class:`ConvergenceStructure` does on a bad table."""
    return ConvergenceStructure(lattice, tuple(limtab))


def lim(cs: ConvergenceStructure, f: Filter) -> int:
    """The limit of a filter."""
    require_same_carrier(cs.lattice, f.lattice, "lim")
    return cs.limtab[f.generator]


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class StructureClass:
    """Which structure classes a convergence structure belongs to.

    Every flag is exact at every carrier size: on a finite carrier the
    pretopological law over arbitrary families reduces to its empty and
    binary cases, so ``pretopological`` is ``strict and limit``.
    """

    classical: bool
    limit: bool
    strict: bool
    pretopological: bool
    centered: bool
    topological: bool

    def flags(self) -> dict[str, bool]:
        return {
            "classical": self.classical,
            "limit": self.limit,
            "strict": self.strict,
            "pretopological": self.pretopological,
            "centered": self.centered,
            "topological": self.topological,
        }


# Each class test reads the structure and, for flags derived from other
# flags, the memoising mapping it is evaluated through.


def _strict(cs: ConvergenceStructure, flags: Mapping[str, bool]) -> bool:
    return cs.limtab[cs.lattice.bottom] == cs.lattice.top


def _limit(cs: ConvergenceStructure, flags: Mapping[str, bool]) -> bool:
    # The table is antitone, so the law holds at comparable pairs; on a
    # distributive carrier it then holds everywhere iff it holds at the splits.
    lat, tab = cs.lattice, cs.limtab
    meet = lat.meet
    for x, a, b in lat.splits:
        if tab[x] != meet(tab[a], tab[b]):
            return False
    return True


def _classical(cs: ConvergenceStructure, flags: Mapping[str, bool]) -> bool:
    lat, tab = cs.lattice, cs.limtab
    comp = lat.report.complemented
    return all(
        tab[g] == tab[lat.meet_of(bits(lat.up[g] & comp))] for g in range(lat.n)
    )


def _centered(cs: ConvergenceStructure, flags: Mapping[str, bool]) -> bool:
    lat, adh = cs.lattice, cs.adh
    return all(lat.leq(l, adh[l]) for l in range(lat.n))


def _topological(cs: ConvergenceStructure, flags: Mapping[str, bool]) -> bool:
    from .topology import is_topological  # deferred: topology builds on this module

    return is_topological(cs)


# The class tests in ascending cost: strict is O(1), limit and pretopological
# O(n), classical O(n) meets of up-sets, centered needs the adherence table
# and topological the topological modification.
_CLASS_TESTS: dict[str, Callable[[ConvergenceStructure, Mapping[str, bool]], bool]] = {
    "strict": _strict,
    "limit": _limit,
    "pretopological": lambda cs, flags: flags["strict"] and flags["limit"],
    "classical": _classical,
    "centered": _centered,
    "topological": _topological,
}

CLASS_COST_ORDER = tuple(_CLASS_TESTS)


class ClassFlags(Mapping[str, bool]):
    """The class flags of one structure, each computed on first read and
    kept; iteration yields the names cheapest first."""

    __slots__ = ("structure", "_known")

    def __init__(self, structure: ConvergenceStructure) -> None:
        self.structure = structure
        self._known: dict[str, bool] = {}

    def __getitem__(self, name: str) -> bool:
        known = self._known
        if name not in known:
            known[name] = _CLASS_TESTS[name](self.structure, self)
        return known[name]

    def __iter__(self) -> Iterator[str]:
        return iter(_CLASS_TESTS)

    def __len__(self) -> int:
        return len(_CLASS_TESTS)


def classify(cs: ConvergenceStructure) -> StructureClass:
    """Membership of the structure in each of the six classes, exact at every
    carrier size.

    - classical: the limit only depends on the complemented members of the
      filter;
    - limit: binary filter intersections map to limit infima;
    - strict: the improper filter converges to top;
    - pretopological: arbitrary (including empty) intersections map to
      infima; by induction over finite families this is ``strict and limit``;
    - centered: every element sits below its adherence;
    - topological: equal to its own topological modification.
    """
    return StructureClass(**ClassFlags(cs))


# ---------------------------------------------------------------------------
# continuity


@dataclass(frozen=True)
class ContinuityReport:
    continuous: bool
    final: bool
    witness: str | None = None


def check_continuity(
    phi: LatticeMorphism,
    source: ConvergenceStructure,
    target: ConvergenceStructure,
) -> ContinuityReport:
    """Continuity (and finality) of a coframe morphism between structures.

    The map is continuous when every filter on the target converges below the
    image of the limit of its preimage filter, and final when equality holds
    throughout, reading the preimage filters off ``LatticeMorphism.adjoint``.
    """
    require_same_carrier(phi.source, source.lattice, "continuity source")
    require_same_carrier(phi.target, target.lattice, "continuity target")
    tgt_lat, pre = phi.target, phi.adjoint.values
    continuous = True
    final = True
    witness: str | None = None
    for g in range(tgt_lat.n):
        lhs = target.limtab[g]
        rhs = phi.values[source.limtab[pre[g]]]
        if lhs != rhs:
            final = False
        if not tgt_lat.leq(lhs, rhs):
            continuous = False
            if witness is None:
                witness = (
                    f"filter at {tgt_lat.label(g)!r}: limit "
                    f"{tgt_lat.label(lhs)!r} not below image "
                    f"{tgt_lat.label(rhs)!r}"
                )
    return ContinuityReport(continuous=continuous, final=final, witness=witness)


# ---------------------------------------------------------------------------
# one-step and iterated modifications

S1_KINDS = ("limit", "strict", "strict_limit", "pretop")


def s1(cs: ConvergenceStructure, kind: str) -> ConvergenceStructure:
    """One completion step towards the given class.

    - ``limit``: new limit at ``f`` is the join of ``lim g ∧ lim h`` over all
      binary splittings ``g ∨ h ≥ f``;
    - ``strict``: bumps the improper filter's limit to top;
    - ``strict_limit`` / ``pretop``: join over arbitrary families whose
      intersection refines ``f`` (on finite carriers these two coincide; the
      empty family only covers the improper filter and contributes top).
      Since the table is antitone and every join-irreducible is join-prime,
      that join is top at bottom, the input's limit at each join-irreducible,
      and elsewhere the infimum of the new limits at two lower covers
      (``FiniteLattice.splits``, in rank order): O(n) meets.

    The result is pointwise above the input and antitone (a trusted build);
    iterating reaches the least fixed point (see :func:`s_infinity`).
    """
    lat, tab = cs.lattice, cs.limtab
    n = lat.n
    if kind in ("strict", "strict_limit", "pretop"):
        new = list(tab)
        new[lat.bottom] = lat.top
        if kind != "strict":
            meet = lat.meet
            for x, a, b in lat.splits:
                new[x] = meet(new[a], new[b])
        return _trusted(ConvergenceStructure, lattice=lat, limtab=tuple(new))
    if kind == "limit":
        contrib = [lat.bottom] * n
        for g in range(n):
            for h in range(g, n):
                j = lat.join(g, h)
                contrib[j] = lat.join(contrib[j], lat.meet(tab[g], tab[h]))
        new = tuple(
            lat.join_of(contrib[j] for j in bits(lat.up[f])) for f in range(n)
        )
        return _trusted(ConvergenceStructure, lattice=lat, limtab=new)
    raise UnknownKind(f"unknown completion kind {kind!r}; expected one of {S1_KINDS}")


def s_infinity(cs: ConvergenceStructure, kind: str) -> ConvergenceStructure:
    """Iterate :func:`s1` to its least fixed point above the input.

    Each step is inflationary and monotone, so the iteration is a Kleene
    chain; it must stabilize within ``n**2 + 2`` steps (every entry can only
    climb along a chain in the carrier), and a failure to do so is an
    internal-bug guard, not an input error.
    """
    bound = cs.lattice.n * cs.lattice.n + 2
    current = cs
    for _ in range(bound):
        step = s1(current, kind)
        if step.limtab == current.limtab:
            return current
        current = step
    raise IterationBound(f"completion {kind!r} did not stabilize in {bound} steps")


# ---------------------------------------------------------------------------
# final lifts and points


def final_lift(
    lattice: FiniteLattice,
    sink: Sequence[tuple[LatticeMorphism, ConvergenceStructure]],
) -> ConvergenceStructure:
    """The coarsest structure on ``lattice`` making every sink map continuous.

    Each sink entry is a coframe morphism into ``lattice`` together with a
    structure on its source; the lifted limit of a filter is the infimum over
    the sink of the images of the limits of the preimage filters.  The empty
    sink yields the chaotic structure (everything converges to top).
    """
    for phi, cs in sink:
        require_same_carrier(phi.target, lattice, "final lift target")
        require_same_carrier(phi.source, cs.lattice, "final lift source")
    tab = []
    for f in range(lattice.n):
        tab.append(
            lattice.meet_of(
                phi.values[cs.limtab[phi.adjoint.values[f]]]
                for phi, cs in sink
            )
        )
    return ConvergenceStructure(lattice, tuple(tab))


def points(cs: ConvergenceStructure) -> tuple[int, ...]:
    """Join-prime elements converging to themselves (up to refinement):
    ``p`` is a point when the filter at ``p`` converges above ``p``.
    Built once per structure (see ``ConvergenceStructure.points``)."""
    return cs.points
