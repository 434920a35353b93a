"""Finite convergence spaces and their passage to and from lattice structures.

A finite convergence space stores, for every subset ``A`` of its points,
the set of limit points of the filter of supersets of ``A``.  ``P_space``
reads such a space as a convergence structure on the powerset lattice;
``pt_space`` goes the other way, recovering a space from the join-prime
points of any convergence structure.  The two directions form an
adjunction whose unit ``eta`` is an isomorphism on finite spaces and whose
counit ``epsilon`` sends a lattice element to its set of points.  The
module also hosts the space-level modifications, the equivalence between
pretopological spaces and closure ("adherence") spaces, and the point
spaces of adherence and topological structures.  The space classes
validate themselves on construction; producers of valid tables use the
trusted constructor ``lattice._trusted``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .adherence import AdherenceStructure, adh_structure_of, lim_of_nu
from .convergence import (
    ClassFlags,
    ConvergenceStructure,
    check_continuity,
    classify,
    s_infinity,
    StructureClass,
    _point_sets,
)
from .errors import (
    AxiomViolation,
    BudgetExceeded,
    LatticeMismatch,
    NotAMorphism,
    NotASublattice,
    NotPretopological,
    UnknownKind,
    UnknownLabel,
)
from .filters import Filter
from .lattice import (
    FiniteLattice,
    LatticeMorphism,
    _subset_folds,
    _trusted,
    analyze,
    bits,
    left_adjoint,
    powerset_lattice,
    subset_label,
    subset_mask,
)
from .topology import (
    TopologicalStructure,
    lim_of_C,
    topological_modification,
    topological_structure,
)

__all__ = [
    "FiniteConvergenceSpace",
    "SpaceMap",
    "FiniteAdherenceSpace",
    "FiniteTopologicalSpace",
    "convergence_space",
    "space_map",
    "is_continuous",
    "space_lattice",
    "P_space",
    "P_map",
    "bullet",
    "kow",
    "pt_space",
    "eta",
    "epsilon",
    "phi_dagger",
    "pt_map",
    "classify_space",
    "modify_space",
    "MODIFICATIONS",
    "to_adherence",
    "to_pretop",
    "adherence_continuous",
    "pt_adh",
    "pt_top",
    "top_space_convergence",
    "enumerate_spaces",
    "all_point_maps",
    "is_isomorphism",
]

_SPACE_POINT_CAP = 12


def _check_point_count(points: Sequence[str]) -> int:
    """The number of points, after checking it against the cap that every
    space type shares (their tables and families are indexed by subsets),
    and the point labels for being unique and non-empty."""
    k = len(points)
    if k > _SPACE_POINT_CAP:
        raise BudgetExceeded(f"space on {k} points (limit {_SPACE_POINT_CAP})")
    if len(set(points)) != k or any(not p for p in points):
        raise AxiomViolation("space.points", "point labels must be unique and non-empty")
    return k


@dataclass(frozen=True, eq=False)
class FiniteConvergenceSpace:
    """A finite set of points with a table of limits per subset.

    ``limtab[A]`` is the bitmask of points to which the filter of supersets
    of ``A`` converges.  Two axioms are enforced: each point is a limit of
    its own singleton's filter, and enlarging the filter (shrinking ``A``)
    can only enlarge the limit set.
    """

    points: tuple[str, ...]
    limtab: tuple[int, ...]

    def __post_init__(self) -> None:
        k = _check_point_count(self.points)
        if len(self.limtab) != 1 << k:
            raise AxiomViolation(
                "space.table", f"expected {1 << k} limit entries"
            )
        full = (1 << k) - 1
        for a, lim in enumerate(self.limtab):
            if lim & ~full:
                raise AxiomViolation(
                    "space.table", f"limit of {self.subset_label(a)} out of range"
                )
        for x in range(k):
            if not self.limtab[1 << x] >> x & 1:
                raise AxiomViolation(
                    "space.point",
                    f"point {self.points[x]!r} is not a limit of its own "
                    "singleton filter",
                )
        for a in range(1 << k):
            for x in bits(a):
                smaller = a & ~(1 << x)
                if self.limtab[a] & ~self.limtab[smaller]:
                    raise AxiomViolation(
                        "space.monotone",
                        f"limits of {self.subset_label(a)} exceed those of "
                        f"{self.subset_label(smaller)}",
                    )

    @property
    def n_points(self) -> int:
        return len(self.points)

    def point_index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise UnknownLabel(label) from None

    def subset_label(self, mask: int) -> str:
        return subset_label(self.points, mask)

    def subset_mask(self, label: str) -> int:
        return subset_mask(self.points, label)

    def __repr__(self) -> str:
        return f"FiniteConvergenceSpace({list(self.points)})"


def convergence_space(
    points_: Sequence[str], limtab: Sequence[int]
) -> FiniteConvergenceSpace:
    return FiniteConvergenceSpace(tuple(points_), tuple(limtab))


def _check_total(values: Sequence[int], k_source: int, k_target: int) -> None:
    """Raise ``map.total`` unless ``values`` sends each of ``k_source``
    points to one of ``k_target`` points."""
    if len(values) != k_source:
        raise AxiomViolation("map.total", "one value per source point")
    for v in values:
        if not 0 <= v < k_target:
            raise AxiomViolation("map.total", f"target index {v} out of range")


@dataclass(frozen=True, eq=False)
class SpaceMap:
    """A function between the point sets of two spaces (``values[i]`` is the
    target index of source point ``i``).  Continuity is a checked property,
    not an invariant."""

    source: FiniteConvergenceSpace
    target: FiniteConvergenceSpace
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_total(self.values, self.source.n_points, self.target.n_points)

    def image_mask(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << self.values[i]
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for i in range(self.source.n_points):
            if mask >> self.values[i] & 1:
                out |= 1 << i
        return out

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.source.points[i]}->{self.target.points[v]}"
            for i, v in enumerate(self.values)
        )
        return f"SpaceMap({pairs})"


def space_map(
    source: FiniteConvergenceSpace,
    target: FiniteConvergenceSpace,
    values: Sequence[int],
) -> SpaceMap:
    return SpaceMap(source, target, tuple(values))


def is_continuous(f: SpaceMap) -> bool:
    """Whether the map sends limits to limits: the image of every limit set
    is in the limit set of the image filter; O(2^k) by :func:`_subset_folds`."""
    images = _subset_folds([1 << v for v in f.values], operator.or_, 0)
    limits = f.target.limtab
    return all(not images[lim] & ~limits[images[a]] for a, lim in enumerate(f.source.limtab))


def space_lattice(space: FiniteConvergenceSpace) -> FiniteLattice:
    """The powerset lattice of the space's points (element index = mask)."""
    return powerset_lattice(space.points)


def P_space(space: FiniteConvergenceSpace) -> ConvergenceStructure:
    """Read a space as a convergence structure on its powerset lattice: a
    principal filter converges to the set of its limit points."""
    lat = space_lattice(space)
    return _trusted(ConvergenceStructure, lattice=lat, limtab=space.limtab)


def P_map(f: SpaceMap) -> LatticeMorphism:
    """The preimage morphism between powerset lattices, running opposite to
    the point map.  The map is continuous exactly when the morphism is a
    continuous structure map (the test suite checks both the morphism laws
    and this equivalence on every map between spaces of at most two
    points)."""
    singletons = [f.preimage_mask(1 << y) for y in range(f.target.n_points)]
    return _trusted(
        LatticeMorphism,
        source=space_lattice(f.target),
        target=space_lattice(f.source),
        values=tuple(_subset_folds(singletons, operator.or_, 0)),
        kind="coframe",
    )


def bullet(cs: ConvergenceStructure, element: int) -> int:
    """The set of points lying below an element, as a mask over the point
    list of the structure."""
    return cs.point_sets[element]


def kow(cs: ConvergenceStructure, point_filter: Filter) -> Filter:
    """Pull a filter on the powerset of the structure's points back to a
    filter on the structure's lattice: the elements whose point sets are
    members.  The result is generated by the join of the points named by the
    input's generator: an element's point set contains those points exactly
    when the element lies above their join (the test suite checks this
    against the infimum of the members)."""
    lat = cs.lattice
    pts = cs.points
    plat = powerset_lattice(tuple(lat.label(p) for p in pts))
    if point_filter.lattice is not plat:
        raise LatticeMismatch(
            "filter must live on the powerset of the structure's points"
        )
    gen = lat.join_of(pts[i] for i in bits(point_filter.generator))
    return _trusted(Filter, lattice=lat, generator=gen)


def pt_space(cs: ConvergenceStructure) -> FiniteConvergenceSpace:
    """The space of points of a convergence structure: join-primes below
    their own limit, with a subset converging to every point under the limit
    of its pulled-back filter.

    The pulled-back filter of a subset is generated by the join of its
    points (see :func:`kow`), one join per subset by :func:`_subset_folds`."""
    lat, tab = cs.lattice, cs.limtab
    pts = cs.points
    labels = tuple(lat.label(p) for p in pts)
    _check_point_count(labels)
    point_sets = cs.point_sets
    limtab = tuple(point_sets[tab[gen]] for gen in _subset_folds(pts, lat.join, lat.bottom))
    return _trusted(FiniteConvergenceSpace, points=labels, limtab=limtab)


def eta(space: FiniteConvergenceSpace) -> SpaceMap:
    """The unit comparison: each point goes to the point of the powerset
    structure carried by its singleton.  An isomorphism on finite spaces."""
    back = pt_space(P_space(space))
    lat = space_lattice(space)
    values = tuple(
        back.point_index(lat.label(1 << x)) for x in range(space.n_points)
    )
    return SpaceMap(space, back, values)


def epsilon(cs: ConvergenceStructure) -> LatticeMorphism:
    """The counit comparison: send each element to its set of points, a
    morphism into the powerset lattice of the point space."""
    lat = cs.lattice
    labels = tuple(lat.label(p) for p in cs.points)
    return _trusted(
        LatticeMorphism,
        source=lat,
        target=powerset_lattice(labels),
        values=cs.point_sets,
        kind="coframe",
    )


def phi_dagger(
    phi: LatticeMorphism,
    cs: ConvergenceStructure,
    space: FiniteConvergenceSpace,
) -> SpaceMap:
    """Transpose a continuous morphism into a powerset structure to the map
    sending each point of the space to the least element whose image
    contains it.  Satisfies ``P(transpose)(points of l) = phi(l)`` and is
    the unique map doing so."""
    plat = space_lattice(space)
    if phi.source is not cs.lattice or phi.target is not plat:
        raise LatticeMismatch(
            "morphism must run from the structure's lattice to the space's "
            "powerset lattice"
        )
    report = check_continuity(phi, cs, P_space(space))
    if not report.continuous:
        raise NotAMorphism(
            f"not a continuous structure map: witness {report.witness}"
        )
    adj = left_adjoint(phi)
    pts = cs.points
    back = pt_space(cs)
    values = []
    for x in range(space.n_points):
        element = adj.values[1 << x]
        if element not in pts:
            raise NotAMorphism(
                f"adjoint image {cs.lattice.label(element)!r} of point "
                f"{space.points[x]!r} is not a point of the structure"
            )
        values.append(pts.index(element))
    return SpaceMap(space, back, tuple(values))


def pt_map(
    phi: LatticeMorphism,
    source: ConvergenceStructure,
    target: ConvergenceStructure,
) -> SpaceMap:
    """The point map of a continuous morphism: points of the target
    structure go to their least preimages, running opposite to the
    morphism."""
    report = check_continuity(phi, source, target)
    if not report.continuous:
        raise NotAMorphism(
            f"not a continuous structure map: witness {report.witness}"
        )
    adj = left_adjoint(phi)
    src_pts = source.points
    values = tuple(src_pts.index(adj.values[p]) for p in target.points)
    return SpaceMap(pt_space(target), pt_space(source), values)


def classify_space(space: FiniteConvergenceSpace) -> StructureClass:
    return classify(P_space(space))


# modification name -> its operator on convergence structures: ``lim``,
# ``strict`` and ``pretop`` take the least completion (:func:`s_infinity`),
# ``top`` rebuilds convergence from the closed sets.  The operators are
# called through their names, so that a rebinding of the names (as
# bench/tracing.py does) reaches them.
MODIFICATIONS: dict[str, Callable[[ConvergenceStructure], ConvergenceStructure]] = {
    "lim": lambda cs: s_infinity(cs, "limit"),
    "strict": lambda cs: s_infinity(cs, "strict"),
    "pretop": lambda cs: s_infinity(cs, "pretop"),
    "top": lambda cs: topological_modification(cs),
}


def modify_space(
    space: FiniteConvergenceSpace, kind: str
) -> FiniteConvergenceSpace:
    """The coarsest-fix modification ``kind`` of :data:`MODIFICATIONS`,
    applied to the powerset structure of ``space``."""
    if kind not in MODIFICATIONS:
        raise UnknownKind(f"unknown modification kind {kind!r}")
    out = MODIFICATIONS[kind](P_space(space))
    return _trusted(FiniteConvergenceSpace, points=space.points, limtab=out.limtab)


@dataclass(frozen=True, eq=False)
class FiniteAdherenceSpace:
    """A finite set of points with an additive closure table: the closure
    of the empty set is empty and closure distributes over unions (no
    expansiveness is required)."""

    points: tuple[str, ...]
    adhtab: tuple[int, ...]

    def __post_init__(self) -> None:
        k = _check_point_count(self.points)
        if len(self.adhtab) != 1 << k:
            raise AxiomViolation(
                "closure.table", f"expected {1 << k} closure entries"
            )
        full = (1 << k) - 1
        for a, closure in enumerate(self.adhtab):
            if not 0 <= closure <= full:
                raise AxiomViolation(
                    "closure.table", f"closure of {a:b} out of range"
                )
        if self.adhtab[0] != 0:
            raise AxiomViolation(
                "closure.grounded", "closure of the empty set must be empty"
            )
        unions = _subset_folds([self.adhtab[1 << x] for x in range(k)], operator.or_, 0)
        for a, closure in enumerate(self.adhtab):
            if closure != unions[a]:
                raise AxiomViolation(
                    "closure.additive",
                    f"closure of {a:b} is not the union of its singletons'",
                )

    @property
    def n_points(self) -> int:
        return len(self.points)


def to_adherence(space: FiniteConvergenceSpace) -> FiniteAdherenceSpace:
    """Read a pretopological space as a closure space: the closure of a set
    is the union of the limits of filters meshing it."""
    cs = P_space(space)
    if not ClassFlags(cs)["pretopological"]:
        raise NotPretopological(
            "only pretopological spaces carry an equivalent closure space"
        )
    ns = adh_structure_of(cs)
    return _trusted(FiniteAdherenceSpace, points=space.points, adhtab=ns.nutab)


def to_pretop(adh_space: FiniteAdherenceSpace) -> FiniteConvergenceSpace:
    """The pretopological space of a closure space: a filter converges to
    the points in the closure of everything it meshes.  The space is
    validated: a closure that is not expansive breaks the point axiom."""
    plat = powerset_lattice(adh_space.points)
    ns = _trusted(AdherenceStructure, lattice=plat, nutab=adh_space.adhtab)
    cs = lim_of_nu(ns)
    return FiniteConvergenceSpace(adh_space.points, cs.limtab)


def adherence_continuous(
    values: Sequence[int],
    source: FiniteAdherenceSpace,
    target: FiniteAdherenceSpace,
) -> bool:
    """Whether a point map sends closures into closures of images; O(2^k)
    by :func:`_subset_folds`."""
    _check_total(values, source.n_points, target.n_points)
    images = _subset_folds([1 << v for v in values], operator.or_, 0)
    closures = target.adhtab
    return all(not images[c] & ~closures[images[a]] for a, c in enumerate(source.adhtab))


def pt_adh(ns: AdherenceStructure) -> FiniteAdherenceSpace:
    """The point space of an adherence structure: join-primes inside their
    own closure, with set closures computed from joins.  It equals
    ``to_adherence(pt_space(lim_of_nu(ns)))``, the closure space of the
    induced point convergence (the test suite checks this on every adherence
    structure of the carriers with at most five elements)."""
    lat = ns.lattice
    pts = [
        p for p in bits(analyze(lat).join_primes) if lat.leq(p, ns.nutab[p])
    ]
    labels = tuple(lat.label(p) for p in pts)
    _check_point_count(labels)
    point_sets, nutab = _point_sets(lat, pts), ns.nutab
    adhtab = tuple(point_sets[nutab[join]] for join in _subset_folds(pts, lat.join, lat.bottom))
    return _trusted(FiniteAdherenceSpace, points=labels, adhtab=adhtab)


@dataclass(frozen=True, eq=False)
class FiniteTopologicalSpace:
    """A finite set of points with a family of closed subsets (containing
    the empty and full sets, closed under union and intersection), checked
    as a topological structure on the (cached) powerset lattice of the
    points: O(f · k) for ``f`` sets on ``k`` points, and the error names the
    first union or intersection outside the family."""

    points: tuple[str, ...]
    closed: tuple[int, ...]

    def __post_init__(self) -> None:
        k = _check_point_count(self.points)
        full = (1 << k) - 1
        for i, c in enumerate(self.closed):
            if not 0 <= c <= full:
                raise AxiomViolation(
                    "space.closed", f"closed set #{i} is not a subset of the {k} points"
                )
        if 0 not in self.closed or full not in self.closed:
            raise AxiomViolation(
                "space.closed", "closed family must contain empty and full sets"
            )
        try:
            topological_structure(powerset_lattice(self.points), self.closed)
        except NotASublattice as err:
            raise AxiomViolation(
                "space.closed", f"closed family must be a set lattice: {err}"
            ) from None

    @property
    def n_points(self) -> int:
        return len(self.points)


def pt_top(ts: TopologicalStructure) -> FiniteTopologicalSpace:
    """The point space of a topological structure: all join-primes, with
    one closed subset per closed element."""
    lat = ts.lattice
    pts = list(bits(analyze(lat).join_primes))
    labels = tuple(lat.label(p) for p in pts)
    _check_point_count(labels)
    point_sets = _point_sets(lat, pts, ts.closed)
    family = {point_sets[c] for c in bits(ts.closed)}
    return _trusted(FiniteTopologicalSpace, points=labels, closed=tuple(sorted(family)))


def top_space_convergence(tsp: FiniteTopologicalSpace) -> FiniteConvergenceSpace:
    """The convergence of a finite topological space: the improper filter
    converges everywhere, every other filter to the intersection of the
    closed sets it meets: :func:`lim_of_C` of the family on the powerset
    lattice of the points, O(2^k · k) intersections on ``k`` points."""
    closed = 0
    for c in tsp.closed:  # a directly built space may list a set twice
        closed |= 1 << c
    ts = _trusted(TopologicalStructure, lattice=powerset_lattice(tsp.points), closed=closed)
    return _trusted(FiniteConvergenceSpace, points=tsp.points, limtab=lim_of_C(ts).limtab)


def enumerate_spaces(labels: Sequence[str]) -> Iterator[FiniteConvergenceSpace]:
    """All convergence spaces on the given points, by direct search over
    antitone tables satisfying the point axiom."""
    pts = tuple(labels)
    k = len(pts)
    order = sorted(range(1 << k), key=lambda a: (a.bit_count(), a))
    tab = [0] * (1 << k)

    def choices(a: int) -> Iterator[int]:
        ceiling = (1 << k) - 1
        for x in bits(a):
            ceiling &= tab[a & ~(1 << x)]
        required = a if a.bit_count() == 1 else 0
        if required & ~ceiling:
            return
        sub = ceiling & ~required
        s = sub
        while True:
            yield s | required
            if s == 0:
                break
            s = (s - 1) & sub

    def rec(i: int) -> Iterator[FiniteConvergenceSpace]:
        if i == len(order):
            yield FiniteConvergenceSpace(pts, tuple(tab))
            return
        a = order[i]
        for choice in choices(a):
            tab[a] = choice
            yield from rec(i + 1)

    yield from rec(0)


def all_point_maps(
    source: FiniteConvergenceSpace, target: FiniteConvergenceSpace
) -> Iterator[SpaceMap]:
    """Every function between the point sets (continuous or not)."""
    import itertools

    for values in itertools.product(
        range(target.n_points), repeat=source.n_points
    ):
        yield SpaceMap(source, target, values)


def is_isomorphism(f: SpaceMap) -> bool:
    """Bijective, continuous, with continuous inverse."""
    if sorted(f.values) != list(range(f.target.n_points)):
        return False
    if not is_continuous(f):
        return False
    inverse = [0] * f.target.n_points
    for i, v in enumerate(f.values):
        inverse[v] = i
    return is_continuous(SpaceMap(f.target, f.source, tuple(inverse)))
