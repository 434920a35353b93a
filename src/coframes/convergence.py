"""Convergence structures on finite coframes.

A convergence structure assigns to every filter a limit element, antitone in
the filter order: finer filters converge to at least as much.  Since filters
on a finite lattice are principal, the structure is a table indexed by
generator: ``limtab[g]`` is the limit of the filter of elements above ``g``.

The module provides classification (classical / limit / strict /
pretopological / centered / topological), continuity and finality of coframe
morphisms, the one-step completion and its least fixed point, which complete
a structure into a limit (or pretopological) one, final lifts along sinks,
and points.
A structure builds its adherence tables, closed elements, points and point
sets on first use and keeps them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import AxiomViolation, UnknownKind
from .filters import Filter
from .lattice import (
    FiniteLattice,
    LatticeMorphism,
    _trusted,
    bits,
    derived,
    left_adjoint,
    require_distributive,
    require_same_carrier,
)

__all__ = [
    "ConvergenceStructure",
    "StructureClass",
    "ClassFlags",
    "CLASS_COST_ORDER",
    "table_class_tests",
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
        """Raw adherence: join of limits over all filters meshing the element.

        Those filters are generated by the nonzero-meet row of the element,
        the union of the up-sets of the atoms below it.  The table is
        antitone, so the join over an atom's up-set is that atom's own
        limit, and ``adh0[l]`` is the join of the limits at the atoms below
        ``l`` (:meth:`FiniteLattice.fold_atoms`): O(n · atoms) joins.
        """
        lat = self.lattice
        return tuple(lat.fold_atoms(lat.join, lat.bottom, self.limtab))

    @derived
    def adh(self) -> tuple[int, ...]:
        """Adherence corrected to be infimum-determined by complemented
        elements.  ``adh0`` is monotone, so the infimum over the complemented
        elements above ``l`` is its value at the least of them."""
        raw = self.adh0
        return tuple(raw[c] for c in self.lattice.comp_above)

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

    @derived
    def point_sets(self) -> tuple[int, ...]:
        """Per element, the mask over :attr:`points` of the points below it."""
        return _point_sets(self.lattice, self.points)


def _point_sets(
    lattice: FiniteLattice, points: Sequence[int], within: int = -1
) -> tuple[int, ...]:
    """Per element of the mask ``within`` (all of them by default), the mask
    of the indices ``i`` with ``points[i]`` below it, and 0 elsewhere: the
    transpose of the points' up-rows cut to ``within``, one step per
    point-element pair in order."""
    out = [0] * lattice.n
    up = lattice.up
    for i, p in enumerate(points):
        bit = 1 << i
        for l in bits(up[p] & within):
            out[l] |= bit
    return tuple(out)


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
        return asdict(self)


# Each class test is bound to a carrier once, capturing the carrier's fields
# it reads, and then reads antitone tables on it.  Derived carrier data
# (``splits``, ``comp_above``) is read when a table is, so binding builds
# none of it.  The tests that need a structure's derived tables get it from
# ``structure``, which maps a table to its structure.

Structure = Callable[[tuple[int, ...]], ConvergenceStructure]
TableTest = Callable[[tuple[int, ...]], bool]


def _strict(lat: FiniteLattice, structure: Structure) -> TableTest:
    bottom, top = lat.bottom, lat.top
    return lambda tab: tab[bottom] == top


def _limit(lat: FiniteLattice, structure: Structure) -> TableTest:
    # The table is antitone, so the law holds at comparable pairs; on a
    # distributive carrier it then holds everywhere iff it holds at the splits.
    meet = lat.meet

    def limit(tab: tuple[int, ...]) -> bool:
        for x, a, b in lat.splits:
            if tab[x] != meet(tab[a], tab[b]):
                return False
        return True

    return limit


def _pretopological(lat: FiniteLattice, structure: Structure) -> TableTest:
    strict, limit = _strict(lat, structure), _limit(lat, structure)
    return lambda tab: strict(tab) and limit(tab)


def _classical(lat: FiniteLattice, structure: Structure) -> TableTest:
    return lambda tab: all(tab[g] == tab[c] for g, c in enumerate(lat.comp_above))


def _centered(lat: FiniteLattice, structure: Structure) -> TableTest:
    leq, elements = lat.leq, range(lat.n)

    def centered(tab: tuple[int, ...]) -> bool:
        adh = structure(tab).adh
        return all(leq(l, adh[l]) for l in elements)

    return centered


def _topological(lat: FiniteLattice, structure: Structure) -> TableTest:
    from .topology import is_topological  # deferred: topology builds on this module

    return lambda tab: is_topological(structure(tab))


# The class tests in ascending cost: strict is O(1), limit and pretopological
# O(n), classical O(n) meets of up-sets, centered needs the adherence table
# and topological the topological modification.
_CLASS_TESTS: dict[str, Callable[[FiniteLattice, Structure], TableTest]] = {
    "strict": _strict,
    "limit": _limit,
    "pretopological": _pretopological,
    "classical": _classical,
    "centered": _centered,
    "topological": _topological,
}

CLASS_COST_ORDER = tuple(_CLASS_TESTS)


def table_class_tests(
    lattice: FiniteLattice, names: Iterable[str]
) -> tuple[TableTest, ...]:
    """The class tests of ``names`` bound to ``lattice``, each reading an
    antitone table on it, which the caller vouches for.

    ``centered`` and ``topological`` read the table's structure, built (a
    trusted build) when one of them first reads that table and shared by
    both; the other four tests read only the table.
    """
    built: ConvergenceStructure | None = None

    def structure(tab: tuple[int, ...]) -> ConvergenceStructure:
        nonlocal built
        if built is None or built.limtab is not tab:
            built = _trusted(ConvergenceStructure, lattice=lattice, limtab=tab)
        return built

    return tuple(_CLASS_TESTS[name](lattice, structure) for name in names)


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
            cs = self.structure
            known[name] = _CLASS_TESTS[name](cs.lattice, lambda tab: cs)(cs.limtab)
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
    throughout, reading the preimage filters off :func:`left_adjoint`; a
    map declared only monotone has no preimage filters and is refused with
    :class:`NotAMorphism`.
    """
    require_same_carrier(phi.source, source.lattice, "continuity source")
    require_same_carrier(phi.target, target.lattice, "continuity target")
    tgt_lat, pre = phi.target, left_adjoint(phi).values
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
# completions

S1_KINDS = ("limit", "strict", "strict_limit", "pretop")


def s1(cs: ConvergenceStructure, kind: str) -> ConvergenceStructure:
    """One completion step towards the given class.

    - ``limit``: new limit at ``f`` is the join of ``lim g ∧ lim h`` over all
      binary splittings ``g ∨ h ≥ f``;
    - ``strict``: bumps the improper filter's limit to top;
    - ``strict_limit`` / ``pretop``: join over arbitrary families whose
      intersection refines ``f`` (on finite carriers these two coincide; the
      empty family only covers the improper filter and contributes top).

    For ``strict``, ``strict_limit`` and ``pretop`` one step already reaches
    the least fixed point, so those kinds are :func:`s_infinity`'s closed
    form.  The ``limit`` step is the pair scan above, O(n²) joins and
    meets; the result is pointwise above the input and antitone (a trusted
    build).
    """
    if kind != "limit":
        return s_infinity(cs, kind)
    lat, tab = cs.lattice, cs.limtab
    n = lat.n
    contrib = [lat.bottom] * n
    for g in range(n):
        for h in range(g, n):
            j = lat.join(g, h)
            contrib[j] = lat.join(contrib[j], lat.meet(tab[g], tab[h]))
    new = tuple(lat.join_of(contrib[j] for j in bits(lat.up[f])) for f in range(n))
    return _trusted(ConvergenceStructure, lattice=lat, limtab=new)


def s_infinity(cs: ConvergenceStructure, kind: str) -> ConvergenceStructure:
    """The least fixed point of :func:`s1` above the input, the least
    structure of the given class above it, in one O(n) pass.

    The bottom becomes top for every kind but ``limit``; for every kind
    but ``strict``, each split ``x = a ∨ b`` (``FiniteLattice.splits``, in
    rank order) takes ``new(a) ∧ new(b)``, and the join-irreducibles keep
    the input's limit.  On a distributive carrier an antitone table obeys
    the limit law iff it does at the splits, and by induction along the
    rank order every member of the class above the input lies above these
    values (a trusted build).
    """
    if kind not in S1_KINDS:
        raise UnknownKind(f"unknown completion kind {kind!r}; expected one of {S1_KINDS}")
    lat = cs.lattice
    new = list(cs.limtab)
    if kind != "limit":
        new[lat.bottom] = lat.top
    if kind != "strict":
        meet = lat.meet
        for x, a, b in lat.splits:
            new[x] = meet(new[a], new[b])
    return _trusted(ConvergenceStructure, lattice=lat, limtab=tuple(new))


# ---------------------------------------------------------------------------
# final lifts and points


def final_lift(
    lattice: FiniteLattice,
    sink: Sequence[tuple[LatticeMorphism, ConvergenceStructure]],
) -> ConvergenceStructure:
    """The coarsest structure on ``lattice`` making every sink map continuous.

    Each sink entry is a coframe morphism into ``lattice`` together with a
    structure on its source; the lifted limit of a filter is the infimum over
    the sink of the images of the limits of the preimage filters, read off
    :func:`left_adjoint` (which refuses a map declared only monotone).  The
    empty sink yields the chaotic structure (everything converges to top).
    """
    for phi, cs in sink:
        require_same_carrier(phi.target, lattice, "final lift target")
        require_same_carrier(phi.source, cs.lattice, "final lift source")
    pre = [left_adjoint(phi).values for phi, _ in sink]
    tab = tuple(
        lattice.meet_of(
            phi.values[cs.limtab[adj[f]]] for (phi, cs), adj in zip(sink, pre)
        )
        for f in range(lattice.n)
    )
    return ConvergenceStructure(lattice, tab)


def points(cs: ConvergenceStructure) -> tuple[int, ...]:
    """Join-prime elements converging to themselves (up to refinement):
    ``p`` is a point when the filter at ``p`` converges above ``p``.
    Built once per structure (see ``ConvergenceStructure.points``)."""
    return cs.points
