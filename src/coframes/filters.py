"""Filters on a finite lattice, their grills, and complemented restrictions.

On a finite lattice every filter (nonempty, up-closed, meet-closed subset) is
principal — the meet of its members belongs to it — so filters are stored by
generator.  The improper filter (generated by bottom, containing everything)
is included: the set of filters ordered by refinement is the lattice upside
down.  Grills are up-sets but generally not filters, so they get their own
type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AxiomViolation
from .lattice import (
    FiniteLattice,
    LatticeMorphism,
    _trusted,
    bits,
    left_adjoint,
    require_same_carrier,
)

__all__ = [
    "Filter",
    "UpSet",
    "all_filters",
    "intersection",
    "is_proper",
    "refines",
    "mesh",
    "grill",
    "restrict_complemented",
    "preimage_filter",
    "preimage_upset",
]


@dataclass(frozen=True, eq=False)
class Filter:
    """The principal filter of ``generator``: all elements above it."""

    lattice: FiniteLattice
    generator: int

    def __post_init__(self) -> None:
        if not 0 <= self.generator < self.lattice.n:
            lat = self.lattice.name
            raise AxiomViolation("filter.generator", f"{self.generator} is not in {lat}")

    @property
    def members(self) -> int:
        """Bitmask of member elements."""
        return self.lattice.up[self.generator]

    def __contains__(self, element: int) -> bool:
        return self.lattice.leq(self.generator, element)

    def __repr__(self) -> str:
        return f"Filter(^{self.lattice.label(self.generator)!r} in {self.lattice.name})"


@dataclass(frozen=True, eq=False)
class UpSet:
    """An up-closed subset, as a bitmask (may be empty, need not be a filter)."""

    lattice: FiniteLattice
    members: int

    def __post_init__(self) -> None:
        lat = self.lattice
        if self.members >> lat.n:
            raise AxiomViolation("upset", "member mask out of range")
        for i in bits(self.members):
            if lat.up[i] & self.members != lat.up[i]:
                above = next(
                    j for j in bits(lat.up[i]) if not self.members >> j & 1
                )
                raise AxiomViolation(
                    "upset",
                    f"{lat.label(i)!r} is a member but {lat.label(above)!r} above it is not",
                )

    def __contains__(self, element: int) -> bool:
        return bool(self.members >> element & 1)

    def __repr__(self) -> str:
        labels = [self.lattice.label(i) for i in bits(self.members)]
        return f"UpSet({{{', '.join(labels)}}} in {self.lattice.name})"


def all_filters(lattice: FiniteLattice) -> list[Filter]:
    """Every filter, one per generator, in element-index order.

    Includes the improper filter (generated by bottom).
    """
    return [_trusted(Filter, lattice=lattice, generator=g) for g in range(lattice.n)]


def is_proper(f: Filter) -> bool:
    """A filter is proper unless it contains bottom (i.e. is all of L)."""
    return f.generator != f.lattice.bottom


def intersection(f: Filter, g: Filter) -> Filter:
    """Set intersection of filters; principal on the join of the generators."""
    require_same_carrier(f.lattice, g.lattice, "filter intersection")
    return _trusted(
        Filter, lattice=f.lattice, generator=f.lattice.join(f.generator, g.generator)
    )


def refines(f: Filter, g: Filter) -> bool:
    """Whether ``f`` is finer than ``g`` (contains every member of ``g``)."""
    require_same_carrier(f.lattice, g.lattice, "filter refinement")
    return f.lattice.leq(f.generator, g.generator)


def mesh(a: Filter | UpSet, b: Filter | UpSet) -> bool:
    """Whether every member of ``a`` meets every member of ``b`` above bottom.

    The relation is symmetric, and the nonzero-meet rows grow with the
    element, so when either side is a filter its generator's row decides
    (O(1)); two up-sets are compared row by row over the members of ``a``.
    """
    require_same_carrier(a.lattice, b.lattice, "mesh")
    if isinstance(b, Filter):
        a, b = b, a
    rows = a.lattice.nonzero_meet_rows
    bm = b.members
    if isinstance(a, Filter):
        return rows[a.generator] & bm == bm
    return all(rows[x] & bm == bm for x in bits(a.members))


def grill(a: Filter | UpSet) -> UpSet:
    """The elements meeting every member of ``a`` above bottom.

    Always an up-set; the grill of the improper filter is empty, the grill of
    the empty up-set is everything.
    """
    lat = a.lattice
    rows = lat.nonzero_meet_rows
    out = lat.full_mask
    if isinstance(a, Filter):
        out = rows[a.generator]
    else:
        for x in bits(a.members):
            out &= rows[x]
    return _trusted(UpSet, lattice=lat, members=out)


def restrict_complemented(f: Filter) -> Filter:
    """The filter generated by the complemented members of ``f``.

    Top is always a complemented member, so this is well defined; the result
    is the coarsest filter with the same complemented members.
    """
    gen = f.lattice.comp_above[f.generator]
    return _trusted(Filter, lattice=f.lattice, generator=gen)


def preimage_upset(phi: LatticeMorphism, a: UpSet) -> UpSet:
    """The preimage of an up-set under a monotone map (again an up-set)."""
    require_same_carrier(phi.target, a.lattice, "up-set preimage")
    members = 0
    for l in range(phi.source.n):
        if a.members >> phi.values[l] & 1:
            members |= 1 << l
    return _trusted(UpSet, lattice=phi.source, members=members)


def preimage_filter(phi: LatticeMorphism, f: Filter) -> Filter:
    """The preimage of a filter under an infima-preserving map.

    A lattice or coframe morphism preserves the infimum of the preimage, so
    the preimage of a principal up-set is the principal up-set of that
    infimum, the left adjoint's value at the generator; a map declared only
    monotone is refused.  The result is built by the trusted constructor
    (``lattice._trusted``); the test suite compares its members with the
    preimage on every morphism of its corpus.
    """
    require_same_carrier(phi.target, f.lattice, "filter preimage")
    gen = left_adjoint(phi).values[f.generator]
    return _trusted(Filter, lattice=phi.source, generator=gen)
