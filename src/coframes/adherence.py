"""Adherence structures on finite coframes.

An adherence structure assigns to every lattice element an adherence,
monotonically, additively on complemented elements, vanishing at bottom, and
determined on arbitrary elements as the infimum over complemented elements
above.  On distributive carriers additivity then extends to all pairs; the
validator does not re-check that consequence (the test suite does).

The module converts between convergence and adherence views (adherence of a
convergence structure, limits of an adherence structure), computes closed
elements, checks continuity, builds final lifts along sinks, and enumerates
or samples adherence structures through their values on the atoms of the
complemented part (a bijective parametrization).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .convergence import ConvergenceStructure
from .errors import AxiomViolation, BudgetExceeded
from .lattice import (
    FiniteLattice,
    LatticeMorphism,
    _subset_folds,
    _trusted,
    analyze,
    left_adjoint,
    require_distributive,
    require_same_carrier,
)

__all__ = [
    "AdherenceStructure",
    "adherence_structure",
    "adherence_violation",
    "adh0_table",
    "adh0",
    "adh_table",
    "adh",
    "adh_structure_of",
    "lim_of_nu",
    "ClosedReport",
    "closed_sets",
    "check_adh_continuity",
    "final_lift_adh",
    "complemented_atoms",
    "adherence_from_atom_values",
    "enumerate_adherence_structures",
    "random_adherence_structure",
]


@dataclass(frozen=True, eq=False)
class AdherenceStructure:
    """An adherence table, validated on construction by
    :func:`adherence_violation`; producers of valid tables, such as
    :func:`adh_structure_of`, use the trusted constructor ``lattice._trusted``."""

    lattice: FiniteLattice
    nutab: tuple[int, ...]

    def __post_init__(self) -> None:
        violation = adherence_violation(self.lattice, self.nutab)
        if violation is not None:
            raise AxiomViolation(*violation)

    def __repr__(self) -> str:
        vals = ", ".join(
            f"{self.lattice.label(l)}->{self.lattice.label(v)}"
            for l, v in enumerate(self.nutab)
        )
        return f"AdherenceStructure({self.lattice.name}: {vals})"


def adherence_violation(
    lattice: FiniteLattice, nutab: Sequence[int]
) -> tuple[str, str] | None:
    """First broken axiom as ``(axiom, witness)``, or None if all hold.

    Checked: monotonicity (along cover pairs, which implies it everywhere);
    bottom maps to bottom; additivity on complemented pairs, i.e. on that
    Boolean algebra each value is the join of the values at the atoms below
    (one join per complemented element, by :func:`_subset_folds` over the
    atoms); each value is the infimum over the complemented
    elements above.  All-pairs additivity follows on a distributive carrier.
    The test suite compares each check with its definition.
    """
    lat = lattice
    if len(nutab) != len(lat.elements) or min(nutab) < 0 or max(nutab) >= len(nutab):
        return ("adherence.table", "table does not match carrier")
    require_distributive(lat, "adherence structures")
    up = lat.up
    for m, lows in enumerate(lat.covers):
        for l in lows:
            if not up[nutab[l]] >> nutab[m] & 1:
                return (
                    "adherence.monotone",
                    f"{lat.label(l)!r} <= {lat.label(m)!r} but adherences "
                    f"{lat.label(nutab[l])!r} !<= {lat.label(nutab[m])!r}",
                )
    if nutab[lat.bottom] != lat.bottom:
        return (
            "adherence.bottom",
            f"adherence of bottom is {lat.label(nutab[lat.bottom])!r}",
        )
    # the value at each complemented element against the join of the values
    # at the atoms below it; the first failure reported is the smallest
    atoms, joins, join = lat.comp_atoms, lat.comp_joins, lat.join
    folds = _subset_folds([nutab[a] for a in atoms], join, lat.bottom)
    bad = [s for s, v in enumerate(folds) if nutab[joins[s]] != v]
    if bad:
        down = lat.down
        s = min(bad, key=lambda s: (down[joins[s]].bit_count(), joins[s]))
        a, b = atoms[(s & -s).bit_length() - 1], joins[s & s - 1]
        return (
            "adherence.additive",
            f"adherence of {lat.label(a)!r} v {lat.label(b)!r} is "
            f"{lat.label(nutab[joins[s]])!r}, expected "
            f"{lat.label(join(nutab[a], nutab[b]))!r}",
        )
    # given monotonicity, the infimum is the value at the least complemented
    # element above
    for l, c in enumerate(lat.comp_above):
        expected = nutab[c]
        if nutab[l] != expected:
            return (
                "adherence.infimum",
                f"adherence of {lat.label(l)!r} is {lat.label(nutab[l])!r}, "
                f"infimum over complemented elements above gives "
                f"{lat.label(expected)!r}",
            )
    return None


def adherence_structure(
    lattice: FiniteLattice, nutab: Sequence[int]
) -> AdherenceStructure:
    """The structure of any sequence of indices; raises as
    :class:`AdherenceStructure` does on a bad table."""
    return AdherenceStructure(lattice, tuple(nutab))


# ---------------------------------------------------------------------------
# adherence of a convergence structure


def adh0_table(cs: ConvergenceStructure) -> tuple[int, ...]:
    """Raw adherence: join of limits over all filters meshing the element.
    Built once per structure (see ``ConvergenceStructure.adh0``)."""
    return cs.adh0


def adh0(cs: ConvergenceStructure, l: int) -> int:
    return cs.adh0[l]


def adh_table(cs: ConvergenceStructure) -> tuple[int, ...]:
    """Adherence corrected to be infimum-determined by complemented elements.
    Built once per structure (see ``ConvergenceStructure.adh``)."""
    return cs.adh


def adh(cs: ConvergenceStructure, l: int) -> int:
    return cs.adh[l]


def adh_structure_of(cs: ConvergenceStructure) -> AdherenceStructure:
    """The adherence structure induced by a convergence structure.

    The corrected table satisfies the axioms by construction, so this is a
    trusted build (``lattice._trusted``); the ``galois-adh`` law suite
    checks it too (``induced-adherence-axioms``).
    """
    return _trusted(AdherenceStructure, lattice=cs.lattice, nutab=adh_table(cs))


def lim_of_nu(ns: AdherenceStructure) -> ConvergenceStructure:
    """The convergence structure induced by an adherence structure: a filter
    converges to the infimum of the adherences of the complemented elements
    it meshes.

    Those are the complemented elements above the atoms below the
    generator, so the infimum is taken once per atom and then folded over
    the atoms (:meth:`FiniteLattice.row_meets`): O(n · atoms) meets.  The
    split needs no monotonicity of the adherence table.
    """
    lat = ns.lattice
    tab = tuple(lat.row_meets(ns.nutab, analyze(lat).complemented))
    return _trusted(ConvergenceStructure, lattice=lat, limtab=tab)


# ---------------------------------------------------------------------------
# closed elements


@dataclass(frozen=True)
class ClosedReport:
    """Elements fixed under adherence.

    ``quasi_closed`` collects elements whose raw adherence stays below them;
    ``closed`` is its complemented part.  Both routes (raw or corrected
    adherence) carve out the same complemented elements; the test suite
    checks this on every structure of ``small_coframes(6)``.
    """

    quasi_closed: tuple[int, ...]
    closed: tuple[int, ...]


def closed_sets(
    x: ConvergenceStructure | AdherenceStructure,
) -> ClosedReport:
    if isinstance(x, AdherenceStructure):
        lat = x.lattice
        comp = analyze(lat).complemented
        quasi = tuple(l for l in range(lat.n) if lat.leq(x.nutab[l], l))
        return ClosedReport(
            quasi_closed=quasi, closed=tuple(l for l in quasi if comp >> l & 1)
        )
    return ClosedReport(quasi_closed=x.quasi_closed, closed=x.closed)


# ---------------------------------------------------------------------------
# continuity and final lifts


def check_adh_continuity(
    phi: LatticeMorphism,
    source: AdherenceStructure,
    target: AdherenceStructure,
) -> bool:
    """Continuity of a coframe morphism between adherence structures: every
    target element's adherence lies below the image of the adherence of its
    inverse image (computed through the left adjoint)."""
    require_same_carrier(phi.source, source.lattice, "continuity source")
    require_same_carrier(phi.target, target.lattice, "continuity target")
    adj = left_adjoint(phi)
    tgt = phi.target
    return all(
        tgt.leq(target.nutab[l], phi.values[source.nutab[adj.values[l]]])
        for l in range(tgt.n)
    )


def final_lift_adh(
    lattice: FiniteLattice,
    sink: Sequence[tuple[LatticeMorphism, AdherenceStructure]],
) -> AdherenceStructure:
    """The coarsest adherence structure on ``lattice`` making every sink map
    continuous.

    Each complemented element receives a contribution: the infimum over the
    sink of the images of the adherences of its inverse images.  The lifted
    adherence of an element is the infimum, over families of complemented
    elements joining above it, of the joins of their contributions.
    Contributions are monotone, so each bounds the join of those at the
    complemented atoms below it, and every complemented atom below a join
    of complemented elements lies below one of them.  So the least term is
    the join over the atoms below the least complemented element above,
    and the lift is :func:`adherence_from_atom_values` of the contributions
    at the complemented atoms: one meet per atom and sink entry.  The empty
    sink yields the chaotic structure (bottom at bottom, top elsewhere).
    """
    adjoints = []
    for phi, ns in sink:
        require_same_carrier(phi.target, lattice, "final lift target")
        require_same_carrier(phi.source, ns.lattice, "final lift source")
        adjoints.append(left_adjoint(phi))
    values = [
        lattice.meet_of(
            phi.values[ns.nutab[adj.values[t]]] for (phi, ns), adj in zip(sink, adjoints)
        )
        for t in complemented_atoms(lattice)
    ]
    return adherence_from_atom_values(lattice, values)


# ---------------------------------------------------------------------------
# enumeration through atom values


def complemented_atoms(lattice: FiniteLattice) -> tuple[int, ...]:
    """Minimal nonbottom complemented elements, kept with the carrier
    (:attr:`FiniteLattice.comp_atoms`)."""
    return lattice.comp_atoms


def adherence_from_atom_values(
    lattice: FiniteLattice, values: Sequence[int]
) -> AdherenceStructure:
    """The adherence structure with the given adherences at the complemented
    atoms.

    Any choice of values is legal: on a distributive carrier the additive
    extension to complemented elements and the infimum extension everywhere
    else satisfy all axioms (a trusted build), and every adherence structure
    arises this way exactly once.  The value at each complemented element,
    :attr:`FiniteLattice.comp_joins` entry ``s``, is the join of the values
    at the atoms of ``s``: one join per element by :func:`_subset_folds`.
    """
    require_distributive(lattice, "adherence structures")
    atoms = complemented_atoms(lattice)
    if len(values) != len(atoms) or any(not 0 <= v < lattice.n for v in values):
        raise AxiomViolation(
            "adherence.atoms",
            f"expected {len(atoms)} element indices, got {list(values)}",
        )
    on_comp = dict(
        zip(lattice.comp_joins, _subset_folds(values, lattice.join, lattice.bottom))
    )
    tab = tuple(on_comp[c] for c in lattice.comp_above)
    return _trusted(AdherenceStructure, lattice=lattice, nutab=tab)


def enumerate_adherence_structures(
    lattice: FiniteLattice, *, budget: int = 200_000
) -> Iterable[AdherenceStructure]:
    """All adherence structures on the carrier, via atom values."""
    atoms = complemented_atoms(lattice)
    total = lattice.n ** len(atoms)
    if total > budget:
        raise BudgetExceeded(
            f"{total} adherence structures on {lattice.name} (budget {budget})"
        )
    # the first atom varies fastest
    for values in product(range(lattice.n), repeat=len(atoms)):
        yield adherence_from_atom_values(lattice, values[::-1])


def random_adherence_structure(
    rng: random.Random, lattice: FiniteLattice
) -> AdherenceStructure:
    """A uniformly random adherence structure (uniform over atom values)."""
    atoms = complemented_atoms(lattice)
    return adherence_from_atom_values(
        lattice, [rng.randrange(lattice.n) for _ in atoms]
    )
