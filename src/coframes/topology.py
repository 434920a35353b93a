"""Topological structures on finite coframes, and the sublocale retract.

A topological structure on a finite distributive lattice is a sublattice of
complemented elements containing both bounds: its members are the closed
elements.  Such a structure induces an adherence structure (infimum over
closed elements above) and a convergence structure (a filter converges to
the infimum of the closed elements it meshes); conversely every convergence
structure has a topological modification, the finest topological structure
coarser than it.  Topologies are validated through the closures of the
complemented atoms and enumerated from preorders on those atoms.

The second half of the module builds the Boolean lattice of sublocales of a
finite frame from its primes, the canonical closed-element embedding, the
induced action on frame morphisms, and the collapse morphism exhibiting
topological carriers as a coreflective image of sublocale lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .adherence import AdherenceStructure
from .convergence import ConvergenceStructure
from .errors import (
    AxiomViolation,
    BudgetExceeded,
    NotComplemented,
    NotDistributive,
    StarFormulaMismatch,
)
from .lattice import (
    FiniteLattice,
    LatticeMorphism,
    _mask_lattice,
    _outside,
    _subset_folds,
    _transpose,
    _trusted,
    _union_closure,
    analyze,
    bits,
    dualize,
    require_distributive,
    require_same_carrier,
    sublattice,
)

__all__ = [
    "TopologicalStructure",
    "topological_structure",
    "nu_of_C",
    "C_of_nu",
    "lim_of_C",
    "topological_modification",
    "is_topological",
    "maps_closed_to_closed",
    "enumerate_topologies",
    "SublocaleLattice",
    "sublocale_lattice",
    "wedge_C",
    "is_strong",
    "star",
    "sublocale_map",
    "sublocale_counit",
]


@dataclass(frozen=True, eq=False)
class TopologicalStructure:
    """A set of closed elements: complemented, both bounds, meet/join closed.

    ``closed`` is a bitmask over carrier indices, validated on construction
    (producers of valid masks, such as :func:`C_of_nu`, use the trusted
    constructor ``lattice._trusted``).

    Meet and join closure cost O(|closed| · atoms): ``c(a)``, for each atom
    ``a`` of the complemented part, is folded as the running meet of the
    members above ``a``, and the joins of the ``c(a)`` are grown from bottom;
    the first meet or join outside the family raises :class:`NotASublattice`
    with its pair.  Otherwise the family is a sublattice: each member ``x``
    is the join of the ``c(a)`` over the atoms ``a ≤ x`` (``a ≤ c(a) ≤ x``),
    and the joins grown are the images of the down-sets of the preorder
    ``a ≼ b ⇔ a ≤ c(b)`` (Birkhoff–Alexandrov), closed under meets and
    joins.  The all-pairs scan ``lattice.require_sublattice`` is the oracle.
    """

    lattice: FiniteLattice
    closed: int

    def __post_init__(self) -> None:
        lattice, mask = self.lattice, self.closed
        require_distributive(lattice, "topological structures")
        if mask >> lattice.n:
            raise AxiomViolation("topology.members", "closed mask out of range")
        comp = analyze(lattice).complemented
        for m in bits(mask & ~comp):
            raise NotComplemented(
                f"closed element {lattice.label(m)!r} has no complement"
            )
        if not mask >> lattice.bottom & 1 or not mask >> lattice.top & 1:
            raise AxiomViolation(
                "topology.bounds", "closed elements must include both bounds"
            )
        _atom_closures(lattice, mask)

    def __repr__(self) -> str:
        members = ", ".join(self.lattice.label(c) for c in bits(self.closed))
        return f"TopologicalStructure({self.lattice.name}: {{{members}}})"


def _atom_closures(lattice: FiniteLattice, closed: int) -> set[int]:
    """The distinct ``c(a)`` of the complemented atoms, checking on the way
    that ``closed`` is a sublattice as :class:`TopologicalStructure` states."""
    up, closures, joins = lattice.up, set(), 1 << lattice.bottom
    for a in lattice.comp_atoms:
        c, rest = lattice.top, up[a] & closed
        while rest:  # one meet per member not above the running meet
            s = (rest & -rest).bit_length() - 1
            r = lattice.meet(c, s)
            if not closed >> r & 1:
                raise _outside(lattice, "meet", c, s, r)
            c, rest = r, rest & ~up[r]
        closures.add(c)
        for j in bits(0 if joins >> c & 1 else joins):
            r = lattice.join(j, c)
            if not closed >> r & 1:
                raise _outside(lattice, "join", j, c, r)
            joins |= 1 << r
    return closures


def topological_structure(
    lattice: FiniteLattice, members: Iterable[int]
) -> TopologicalStructure:
    """The structure with the given closed members; raises as
    :class:`TopologicalStructure` does on a bad family."""
    mask = 0
    for m in members:
        if not 0 <= m < lattice.n:
            raise AxiomViolation("topology.members", f"index {m} out of range")
        mask |= 1 << m
    return TopologicalStructure(lattice, mask)


def nu_of_C(ts: TopologicalStructure) -> AdherenceStructure:
    """The adherence structure of a topological structure: each element's
    adherence is the infimum of the closed elements above it, one meet per
    minimal one (``meet_mask``).  The axioms hold by construction, so it is
    built by ``lattice._trusted``."""
    lat = ts.lattice
    tab = tuple(lat.meet_mask(row & ts.closed) for row in lat.up)
    return _trusted(AdherenceStructure, lattice=lat, nutab=tab)


def C_of_nu(ns: AdherenceStructure) -> TopologicalStructure:
    """The topological structure of an adherence structure: complemented
    elements fixed (from above) by their adherence: both bounds, closed
    under joins by additivity and under meets by monotonicity."""
    lat = ns.lattice
    comp = analyze(lat).complemented
    mask = sum(1 << l for l in bits(comp) if lat.leq(ns.nutab[l], l))
    return _trusted(TopologicalStructure, lattice=lat, closed=mask)


def lim_of_C(ts: TopologicalStructure) -> ConvergenceStructure:
    """The convergence structure of a topological structure: a filter
    converges to the infimum of the closed elements it meshes.

    Those are the closed elements above the atoms below the generator, so
    the infimum is taken once per atom and then folded over the atoms
    (:meth:`FiniteLattice.row_meets`): O(n · atoms) meets.
    """
    lat = ts.lattice
    tab = tuple(lat.row_meets(range(lat.n), ts.closed))
    return _trusted(ConvergenceStructure, lattice=lat, limtab=tab)


def topological_modification(cs: ConvergenceStructure) -> ConvergenceStructure:
    """The finest topological convergence structure coarser than the input:
    induced by the input's closed elements."""
    closed = sum(1 << c for c in cs.closed)
    return lim_of_C(_trusted(TopologicalStructure, lattice=cs.lattice, closed=closed))


def is_topological(cs: ConvergenceStructure) -> bool:
    """Whether the structure equals its topological modification, compared
    entry by entry without building the modification: each filter must
    converge to the infimum of the closed elements it meshes.

    Those infima are folded over the atoms as in :func:`lim_of_C`
    (O(n · atoms) meets), and the comparison stops at the first mismatch.
    """
    lat, tab = cs.lattice, cs.limtab
    # the improper filter meshes nothing, so it must converge to top
    if tab[lat.bottom] != lat.top:
        return False
    closed = sum(1 << c for c in cs.closed)
    return all(
        t == m for t, m in zip(tab, lat.row_meets(range(lat.n), closed))
    )


def maps_closed_to_closed(
    phi: LatticeMorphism, source: TopologicalStructure, target: TopologicalStructure
) -> tuple[bool, str | None]:
    """Whether the morphism carries every closed element of its source
    structure to a closed element of the target structure (the topological
    reading of continuity)."""
    require_same_carrier(phi.source, source.lattice, "closed-map source")
    require_same_carrier(phi.target, target.lattice, "closed-map target")
    for c in bits(source.closed):
        img = phi.values[c]
        if not target.closed >> img & 1:
            return False, (
                f"closed {phi.source.label(c)!r} maps to non-closed "
                f"{phi.target.label(img)!r}"
            )
    return True, None


def enumerate_topologies(
    lattice: FiniteLattice, *, budget: int = 1 << 20
) -> Iterable[TopologicalStructure]:
    """All topological structures on the carrier, ordered by (member count,
    closed mask), so the coarsest (just the bounds) comes first.

    They are the bounded sublattices of the complemented part ``2^m``: the
    joins of the down-sets of each preorder on its ``m`` atoms (Birkhoff;
    OEIS A000798).  The preorders grow one point at a time, which gets a
    down-set and an up-set of the old preorder with every member of the
    first below every member of the second, so the work is proportional to
    the output.  More than ``budget`` preorders in a stage (stages only
    grow) raise :class:`BudgetExceeded`."""
    require_distributive(lattice, "topological structures")
    atoms, joins = lattice.comp_atoms, lattice.comp_joins
    refusal = f"more than {budget} topologies on {lattice.name}"
    if budget < 1:
        raise BudgetExceeded(refusal)
    stage: list[tuple[int, ...]] = [()]
    for k in range(len(atoms)):
        bit, grown = 1 << k, []
        for below in stage:
            ups = _union_closure(_transpose(below))
            for low in _union_closure(below):
                # point k goes above the down-set `low` and below the up-set
                # `high`, which must lie above every member of `low`
                above_low = sum(1 << u for u, row in enumerate(below) if row & low == low)
                grown += [
                    (*(r | bit * (high >> i & 1) for i, r in enumerate(below)), low | bit)
                    for high in ups
                    if high & above_low == high
                ]
                if len(grown) > budget:
                    raise BudgetExceeded(refusal)
        stage = grown
    found = [sum(1 << joins[d] for d in _union_closure(below)) for below in stage]
    for mask in sorted(found, key=lambda m: (m.bit_count(), m)):
        yield _trusted(TopologicalStructure, lattice=lattice, closed=mask)


# ---------------------------------------------------------------------------
# sublocales of a finite frame
#
# Frames enter these functions in frame orientation: the lattice's own meet
# is the frame meet.  The lattice of sublocales is itself produced in coframe
# orientation (ordered by inclusion), and the canonical embedding of the
# frame's opposite into it is a coframe morphism.


_SUBLOCALE_BUDGET = 7  # primes, so at most 128 sublocales


def _require_primes(name: str, count: int) -> None:
    if count > _SUBLOCALE_BUDGET:
        raise BudgetExceeded(f"sublocales of {name}: {count} primes (limit {_SUBLOCALE_BUDGET})")


@dataclass(frozen=True, eq=False)
class SublocaleLattice:
    """The sublocales of a finite frame, ordered by inclusion.

    ``lattice`` is the Boolean algebra, indexed by mask, of the sets ``S`` of
    the frame's primes (bit ``i`` for the ``i``-th), and ``masks[S]`` is the
    member set of sublocale ``S``.  ``closed_index[u]`` / ``open_index[u]`` are the
    closed and open sublocales of the frame element ``u``, and
    ``closed_embedding`` is the (injective) coframe morphism from the frame's
    opposite sending ``u`` to its closed sublocale.
    """

    frame: FiniteLattice
    lattice: FiniteLattice
    masks: tuple[int, ...]
    closed_index: tuple[int, ...]
    open_index: tuple[int, ...]
    closed_embedding: LatticeMorphism

    def canonical_topology(self) -> TopologicalStructure:
        return topological_structure(self.lattice, self.closed_index)


def sublocale_lattice(omega: FiniteLattice) -> SublocaleLattice:
    """All sublocales of a finite frame (given in frame orientation).

    A sublocale is a subset containing the frame's top, closed under binary
    meets, and closed under implication from arbitrary frame elements: on a
    finite frame, the meet-closure with top of a set of primes (Picado &
    Pultr), built by doubling the list once per prime, so entry ``S`` is the
    closure of prime set ``S``.  A prime is meet-irreducible, so the primes
    in that closure are ``S``, and inclusion of sublocales is inclusion of
    prime sets.  The closed part of ``u`` is its up-set, the closure of the
    primes above ``u``; the open part is the closure of the others, since
    ``u -> p`` is ``p`` for those and top otherwise.  The test suite checks
    these on every frame fixture within ``_SUBLOCALE_BUDGET`` primes.
    """
    if not analyze(omega).distributive:
        raise NotDistributive(f"{omega.name}: sublocales need a distributive frame")
    primes = list(bits(analyze(omega).meet_primes))
    _require_primes(omega.name, len(primes))
    by_primes = _subset_folds(
        primes, lambda s, p: s | sum({1 << omega.meet(p, v) for v in bits(s)}), 1 << omega.top
    )
    lat = _mask_lattice(
        f"Subloc({omega.name})",
        ["{" + ",".join(omega.label(i) for i in bits(s)) + "}" for s in by_primes],
    )
    closed_index = tuple(
        sum(1 << i for i, p in enumerate(primes) if row >> p & 1) for row in omega.up
    )
    open_index = tuple(lat.top ^ s for s in closed_index)
    embedding = _trusted(
        LatticeMorphism, source=dualize(omega), target=lat, values=closed_index, kind="coframe"
    )
    return SublocaleLattice(omega, lat, tuple(by_primes), closed_index, open_index, embedding)


def wedge_C(ts: TopologicalStructure) -> tuple[FiniteLattice, list[int]]:
    """The closure of the closed elements under all infima of the carrier,
    as a sublattice (with the index map into the carrier): the closed part
    itself (see :func:`is_strong`)."""
    lat = ts.lattice
    return sublattice(lat, bits(ts.closed), name=f"Wedge({lat.name})")


def is_strong(ts: TopologicalStructure) -> bool:
    """Whether the closed elements are closed under all infima of the
    carrier: the elements of :func:`wedge_C` are exactly the closed ones.

    True on every validated :class:`TopologicalStructure`, so nothing is
    built: its closed elements hold top (the empty infimum) and are closed
    under binary meets, and every infimum in a finite carrier is a finite
    meet.  The test suite compares it with :func:`wedge_C`.
    """
    return True


# ---------------------------------------------------------------------------
# the universal morphism out of a sublocale lattice


def star(
    sl: SublocaleLattice, target_frame: FiniteLattice, values: Sequence[int]
) -> LatticeMorphism:
    """Extend a frame morphism with complemented values through the closed
    embedding: the unique coframe morphism out of the sublocale lattice
    agreeing with the given map on closed sublocales.

    ``values[u]`` is the image in ``target_frame`` (frame orientation) of the
    frame element ``u``.  The result maps the sublocale ``S`` to the join
    over ``u`` of ``complement(values[u]) ∧ values[j_S(u)]``, where ``j_S(u)``
    is the least member of ``S`` above ``u`` (``S`` is meet-closed).  The
    given map is validated, and the result is checked in O(n) to agree with
    it on the closed sublocales; a mismatch raises
    :class:`StarFormulaMismatch` and is never patched over.  The morphism
    laws and uniqueness of the result are theorems, checked in the test
    suite (on every result of its corpus) and by the ``locale`` law suite's
    exhaustive search (``star-extension-unique``).
    """
    omega = sl.frame
    if len(values) != omega.n:
        raise AxiomViolation("star.values", "one value per frame element required")
    LatticeMorphism(dualize(omega), dualize(target_frame), tuple(values))
    rep = analyze(target_frame)
    for u in range(omega.n):
        if rep.complement[values[u]] == -1:
            raise NotComplemented(
                f"image {target_frame.label(values[u])!r} of "
                f"{omega.label(u)!r} has no complement"
            )
    star_values = [
        target_frame.join_of(
            target_frame.meet(rep.complement[values[u]], values[omega.meet_mask(s & row)])
            for u, row in enumerate(omega.up)
        )
        for s in sl.masks
    ]
    for u in range(omega.n):
        got = star_values[sl.closed_index[u]]
        if got != values[u]:
            raise StarFormulaMismatch(
                f"closed sublocale of {omega.label(u)!r} maps to "
                f"{target_frame.label(got)!r}, expected "
                f"{target_frame.label(values[u])!r}"
            )
    return _trusted(
        LatticeMorphism,
        source=sl.lattice,
        target=dualize(target_frame),
        values=tuple(star_values),
        kind="coframe",
    )


def sublocale_map(
    sl_src: SublocaleLattice,
    sl_tgt: SublocaleLattice,
    frame_values: Sequence[int],
) -> LatticeMorphism:
    """The action of a frame morphism on sublocale lattices: the unique
    coframe morphism sending each closed sublocale of ``u`` to the closed
    sublocale of the image of ``u``."""
    composite = [sl_tgt.closed_index[v] for v in frame_values]
    return star(sl_src, dualize(sl_tgt.lattice), composite)


def sublocale_counit(
    ts: TopologicalStructure,
) -> tuple[SublocaleLattice, LatticeMorphism]:
    """Collapse the sublocale lattice of a topological carrier's closed-part
    frame back onto the carrier.

    The closed elements, read in opposite order, form a frame; the returned
    morphism is the unique coframe morphism from its sublocale lattice to the
    carrier sending the closed sublocale of each closed element to that
    element.  Together with the closed embedding this exhibits the carrier
    as a retract of the sublocale lattice.

    The closed part's primes are the distinct ``c(a)`` of the carrier's
    complemented atoms, so too many of them raise :class:`BudgetExceeded`
    before any table is built.
    """
    lat = ts.lattice
    _require_primes(f"Wedge({lat.name})^op", len(_atom_closures(lat, ts.closed)))
    wedge, mapping = wedge_C(ts)
    sl = sublocale_lattice(dualize(wedge))
    return sl, star(sl, dualize(lat), mapping)
