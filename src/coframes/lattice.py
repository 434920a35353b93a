"""Finite bounded lattices with bitmask order rows.

The central object is :class:`FiniteLattice`: elements are indices ``0..n-1``
with string labels, and the order is stored as bit rows — ``up[i]`` has bit
``j`` set iff ``i <= j``.  Each carrier holds its meet and join, fixed when it
is built: ``&`` and ``|`` on the indices of powersets and sublocale lattices,
whose index *is* the subset bitmask, and table lookups on every table carrier
(from covers, down-sets or sublattices), whose one O(n^2) builder looks each
table entry up by its row.

Lattice objects are immutable and compared by identity: two structurally equal
lattices built separately are distinct carriers, and operations that require a
shared carrier check identity, not shape.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MethodType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BudgetExceeded,
    CyclicCovers,
    DocumentError,
    LatticeMismatch,
    NotALattice,
    NotAMorphism,
    NotASublattice,
    NotDistributive,
    UnknownLabel,
)

__all__ = [
    "FiniteLattice",
    "FinitePoset",
    "LatticeReport",
    "LatticeMorphism",
    "bits",
    "build_lattice",
    "powerset_lattice",
    "poset_from_covers",
    "downset_lattice",
    "dualize",
    "analyze",
    "pseudocomplement",
    "cover_pairs",
    "sublattice",
    "check_morphism",
    "morphism_violation",
    "left_adjoint",
    "identity_morphism",
    "compose",
]

class derived:
    """An attribute of an immutable object computed on first read and kept
    on the instance, like ``functools.cached_property`` (and, like it on
    Python 3.12+, without a lock).

    The value is stored through ``object.__setattr__``, which works on
    frozen dataclasses and, unlike ``cached_property``, does not make
    CPython materialize the instance ``__dict__``, which would slow every
    later attribute read of the object (its ``meet``, ``join`` and ``up``
    reads included) on Python 3.11.
    """

    def __init__(self, compute: Callable[[Any], Any]) -> None:
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = self.compute(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _trusted(cls: type, **fields: Any) -> Any:
    """The one trusted constructor: an instance of the frozen value class
    ``cls`` built without the checks of its ``__post_init__``.

    Only producers whose output satisfies the class's axioms by construction
    call it; the test suite finds every call and re-validates what it builds
    on a corpus (``tests/test_construction.py``).
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    """A finite bounded lattice.

    ``up[i]`` / ``down[i]`` are bitmasks over element indices giving the
    principal up-set / down-set of ``i`` (reflexive).  ``bottom`` and ``top``
    are element indices.  ``meet`` and ``join`` are the binary operations on
    element indices, fixed when the carrier is built: ``operator.and_`` and
    ``operator.or_`` on a Boolean algebra indexed by subset mask (swapped on
    its dual), lookups in a table on every other carrier.

    Derived data (the :func:`analyze` report, the rank order, the position
    of each label, the atoms, the complemented atoms and their joins, the
    least complemented element above each element, the nonzero-meet rows,
    the dual, the lower covers and the splits) is built on first use and
    kept with the carrier, so it is freed together with it.
    """

    name: str
    elements: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    bottom: int
    top: int
    meet: Callable[[int, int], int]
    join: Callable[[int, int], int]

    # -- basic views ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    def label(self, i: int) -> str:
        return self.elements[i]

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except KeyError:
            raise UnknownLabel(label) from None

    # -- order and operations ---------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def meet_of(self, items: Iterable[int]) -> int:
        """Infimum of a finite family; the empty infimum is ``top``."""
        return reduce(self.meet, items, self.top)

    def meet_mask(self, mask: int) -> int:
        """Infimum of the members of ``mask`` by :func:`_fold`: one meet per
        member not above the running meet."""
        return _fold(self.meet, self.up, self.top, mask, self.bottom > self.top)

    def join_of(self, items: Iterable[int]) -> int:
        """Supremum of a finite family; the empty supremum is ``bottom``."""
        return reduce(self.join, items, self.bottom)

    def rank_order(self) -> tuple[int, ...]:
        """Element indices in a linear extension (by down-set size), sorted
        once per carrier (:attr:`ranked`)."""
        return self.ranked

    # -- derived data, built once per carrier -----------------------------

    @derived
    def report(self) -> LatticeReport:
        """The :func:`analyze` report."""
        return _analysis(self)

    @derived
    def ranked(self) -> tuple[int, ...]:
        """The linear extension of :meth:`rank_order`."""
        return tuple(sorted(range(self.n), key=lambda i: self.down[i].bit_count()))

    @derived
    def positions(self) -> dict[str, int]:
        """Label → element index, for :meth:`index`."""
        return {label: i for i, label in enumerate(self.elements)}

    @derived
    def atoms(self) -> int:
        """Mask of the atoms, the elements covering bottom."""
        bottom_bit = 1 << self.bottom
        return sum(
            1 << c for c, below in enumerate(self.down) if below ^ bottom_bit == 1 << c
        )

    def fold_atoms(
        self,
        op: Callable[[int, int], int],
        start: int,
        values: Sequence[int] | Mapping[int, int],
    ) -> Iterator[int]:
        """For each element in index order, ``op`` folded from ``start`` over
        ``values[a]`` for the atoms ``a`` below it: O(n · atoms) steps.

        Every nonbottom element of a finite lattice lies above an atom, so
        the nonzero-meet row of ``x`` is the union of the up-sets of the
        atoms below ``x``.  A fold of an associative, commutative and
        idempotent ``op`` over that row is therefore the fold, over those
        atoms, of one value per atom.  Yields lazily, so a caller comparing
        entries can stop at the first mismatch.
        """
        atoms = self.atoms
        for below in self.down:
            acc = start
            for a in bits(below & atoms):
                acc = op(acc, values[a])
            yield acc

    def row_meets(self, values: Sequence[int], mask: int) -> Iterator[int]:
        """For each element ``g`` in index order, the infimum of ``values[c]``
        over the members ``c`` of ``mask`` in the nonzero-meet row of ``g``
        (top when there are none).

        That part of the row is the union of ``up[a] & mask`` over the atoms
        ``a`` below ``g``, and an infimum over a union is the infimum of the
        infima over its parts, whatever ``values`` is: one infimum per atom,
        then :meth:`fold_atoms`, so O(n · atoms) meets in all instead of
        O(Σ|row|).
        """
        up = self.up
        per_atom = {
            a: self.meet_of(values[c] for c in bits(up[a] & mask))
            for a in bits(self.atoms)
        }
        return self.fold_atoms(self.meet, self.top, per_atom)

    @derived
    def comp_atoms(self) -> tuple[int, ...]:
        """The minimal nonbottom complemented elements, in increasing index
        order (the complemented part of a distributive lattice is a finite
        Boolean algebra, so these generate it by joins)."""
        comp = self.report.complemented
        bottom = 1 << self.bottom
        down = self.down
        return tuple(a for a in bits(comp & ~bottom) if down[a] & comp == bottom | 1 << a)

    @derived
    def comp_joins(self) -> tuple[int, ...]:
        """Entry ``s`` is the join of the complemented atoms ``comp_atoms[i]``
        for the set bits ``i`` of ``s``, by :func:`_subset_folds`: on a
        distributive carrier, each complemented element exactly once."""
        return tuple(_subset_folds(self.comp_atoms, self.join, self.bottom))

    @derived
    def comp_above(self) -> tuple[int, ...]:
        """Per element ``l``, the meet of the complemented elements above
        it (on every lattice): on a distributive carrier, whose complemented
        part is a sublattice, the least complemented element above ``l``.  A value
        that is monotone in a complemented argument has its infimum over
        those elements at this one."""
        comp = self.report.complemented
        return tuple(self.meet_mask(row & comp) for row in self.up)

    @derived
    def nonzero_meet_rows(self) -> tuple[int, ...]:
        """Row per element: mask of elements whose meet with it is not
        bottom, i.e. the union of the up-sets of the atoms below it, built
        by :meth:`fold_atoms` in O(n · atoms) unions.  Rows grow with the
        element: ``x <= y`` puts ``rows[x]`` inside ``rows[y]``, so a fold
        over a row that only needs its least members reads the atoms."""
        return tuple(self.fold_atoms(operator.or_, 0, self.up))

    @derived
    def dual(self) -> FiniteLattice:
        """The order-dual, whose own ``dual`` is this lattice."""
        base = self.name
        dual = FiniteLattice(
            name=base[:-3] if base.endswith("^op") else base + "^op",
            elements=self.elements,
            up=self.down,
            down=self.up,
            bottom=self.top,
            top=self.bottom,
            meet=self.join,
            join=self.meet,
        )
        object.__setattr__(dual, "dual", self)
        return dual

    @derived
    def covers(self) -> tuple[tuple[int, ...], ...]:
        """``covers[j]``: the lower covers of ``j``, in increasing index order.

        They are the maximal members of the strict down-set of ``j``: take
        the highest index left, climb while another member left lies above
        it, record the maximal member reached and drop its down-set.  No
        cover drops with another's down-set, and a member maximal among those
        left is maximal among all (a member above it dropped with a down-set
        holding it too), so exactly the covers are recorded.  A climb's
        members drop with the cover they reach: ``j`` costs at most ``|↓j|``
        steps, and one per cover on carriers indexed along a linear extension
        (mask, down-set, sublattice), where nothing is climbed."""
        up, down = self.up, self.down
        out = []
        for j, below in enumerate(down):
            left, found = below ^ 1 << j, 0
            while left:
                s = left.bit_length() - 1
                while above := up[s] & left ^ 1 << s:
                    s = (above & -above).bit_length() - 1
                found |= 1 << s
                left &= ~down[s]
            out.append(tuple(bits(found)))
        return tuple(out)

    @derived
    def splits(self) -> tuple[tuple[int, int, int], ...]:
        """``(x, a, b)`` for each ``x`` with two or more lower covers, where
        ``a`` and ``b`` are its first two (so ``x = a v b``), in rank order.

        The other nonbottom elements are the join-irreducibles.  On a
        distributive carrier every join-irreducible is join-prime, so the
        join-irreducibles below ``x`` are those below ``a`` or below ``b``;
        by induction along the rank order, an antitone ``t`` satisfies
        ``t(g v h) = t(g) ^ t(h)`` for all pairs iff it does at the splits.
        """
        covers = self.covers
        return tuple(
            (x, lows[0], lows[1])
            for x in self.rank_order()
            if len(lows := covers[x]) > 1
        )

    def __repr__(self) -> str:
        return f"FiniteLattice({self.name!r}, n={self.n})"


# ---------------------------------------------------------------------------
# construction


def _check_labels(elements: Sequence[str]) -> None:
    if not elements:
        raise NotALattice("a lattice needs at least one element")
    if len(set(elements)) != len(elements):
        raise NotALattice("element labels must be unique")
    if any(not e for e in elements):
        raise NotALattice("element labels must be non-empty")


def _closure_from_covers(n: int, pairs: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Reflexive-transitive up- and down-rows from cover pairs, both folded
    along one Kahn order (up-rows against it, down-rows with it), so no row
    is transposed; raises CyclicCovers."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for lo, hi in pairs:
        succ[lo].append(hi)
        indeg[hi] += 1
    # Kahn's algorithm: a leftover node means a cycle.
    queue = [i for i in range(n) if indeg[i] == 0]
    topo: list[int] = []
    while queue:
        i = queue.pop()
        topo.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(topo) != n:
        raise CyclicCovers("cover relation contains a cycle")
    up = [1 << i for i in range(n)]
    down = up[:]
    for i in reversed(topo):
        for j in succ[i]:
            up[i] |= up[j]
    for i in topo:
        for j in succ[i]:
            down[j] |= down[i]
    return up, down


def _resolve_pairs(
    elements: Sequence[str], covers: Iterable[tuple[int | str, int | str]]
) -> list[tuple[int, int]]:
    index = {e: i for i, e in enumerate(elements)}
    out: list[tuple[int, int]] = []
    for lo, hi in covers:
        a = index[lo] if isinstance(lo, str) else int(lo)
        b = index[hi] if isinstance(hi, str) else int(hi)
        if not (0 <= a < len(elements) and 0 <= b < len(elements)):
            raise NotALattice(f"cover ({lo}, {hi}) out of range")
        if a == b:
            raise CyclicCovers(f"self-loop cover at {elements[a]!r}")
        out.append((a, b))
    return out


def build_lattice(
    name: str,
    elements: Sequence[str],
    covers: Iterable[tuple[int | str, int | str]],
) -> FiniteLattice:
    """Build a lattice from labels and a cover relation ``lo -< hi``.

    Raises :class:`CyclicCovers` for cyclic input, :class:`NotALattice`
    when some pair lacks a meet or a join (or bounds are missing), and
    :class:`BudgetExceeded`, before any row, above ``_COVERS_BUDGET`` elements.
    """
    if len(elements) > _COVERS_BUDGET:
        raise BudgetExceeded(
            f"{name}: {len(elements)} elements exceed the covers budget of {_COVERS_BUDGET}"
        )
    _check_labels(elements)
    up, down = _closure_from_covers(len(elements), _resolve_pairs(elements, covers))
    return _lattice_of_order(name, elements, up, down)


def _transpose(rows: Sequence[int]) -> list[int]:
    """The transpose of a square bit matrix: down-rows from up-rows."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return out


def _inclusion_rows(masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """Up- and down-rows of distinct ``masks`` ordered by inclusion."""
    up = [sum(1 << j for j, mj in enumerate(masks) if mi & mj == mi) for mi in masks]
    return up, _transpose(up)


def _lattice_of_order(
    name: str, elements: Sequence[str], up: Sequence[int], down: Sequence[int]
) -> FiniteLattice:
    """The lattice of a finite order given by its reflexive up- and down-rows.

    In any poset ``down[x] & down[y]`` is a principal down-set exactly when
    ``x ^ y`` exists, and it is then ``down[x ^ y]`` (dually for joins), so
    each table entry is one dict lookup: O(n^2) in all.  Raises
    :class:`NotALattice` when a bound is missing, else naming the first
    pair without a meet, else the first without a join.
    """
    full = (1 << len(elements)) - 1
    of_up = {row: i for i, row in enumerate(up)}
    of_down = {row: i for i, row in enumerate(down)}
    if full not in of_up or full not in of_down:
        raise NotALattice(f"{name}: missing global bottom or top")

    def table(
        rows: Sequence[int], of_row: dict[int, int], what: str
    ) -> tuple[tuple[int, ...], ...]:
        try:
            return tuple(tuple([of_row[rx & ry] for ry in rows]) for rx in rows)
        except KeyError:
            x, y = next(
                (x, y)
                for x, rx in enumerate(rows)
                for y, ry in enumerate(rows)
                if rx & ry not in of_row
            )
            raise NotALattice(
                f"{name}: no {what} for {elements[x]!r}, {elements[y]!r}"
            ) from None

    return FiniteLattice(
        name=name,
        elements=tuple(elements),
        up=tuple(up),
        down=tuple(down),
        bottom=of_up[full],
        top=of_down[full],
        meet=MethodType(_entry, table(down, of_down, "meet")),
        join=MethodType(_entry, table(up, of_up, "join")),
    )


def _entry(table: Sequence[Sequence[int]], i: int, j: int) -> int:
    """Entry ``(i, j)`` of an operation table; a table carrier's ``meet``
    and ``join`` are this function bound to its tables."""
    return table[i][j]


def subset_label(ground: Sequence[str], mask: int) -> str:
    """Canonical label for a subset of ``ground``: sorted, comma-joined, braced."""
    return "{" + ",".join(sorted(ground[i] for i in bits(mask))) + "}"


def _label_parses(
    index: Mapping[str, int], spans: Sequence[int], fragments: list[str], lenient: bool
) -> set[int]:
    """The subsets whose member labels, each spanning as many comma-split
    fragments as it holds commas plus one (``spans``, ascending), spell
    ``fragments`` in order; ``lenient`` strips spaces around a one-fragment
    member.  Walks the fragments position by position, keeping the subsets
    that reach each position."""
    reach: list[set[int]] = [set() for _ in range(len(fragments) + 1)]
    reach[0].add(0)
    for pos, masks in enumerate(reach[:-1]):
        for span in spans:
            if not masks or pos + span > len(fragments):
                break
            name = ",".join(fragments[pos : pos + span])
            i = index.get(name.strip() if lenient and span == 1 else name)
            if i is not None:
                reach[pos + span].update(m | 1 << i for m in masks if not m >> i & 1)
    return reach[-1]


def subset_reader(ground: Sequence[str]) -> Callable[[Any], int]:
    """The one reader of subset labels of ``ground``, built once per ground:
    a function from a label in :func:`subset_label` form (spaces after
    commas tolerated) to its subset mask, raising :class:`DocumentError`
    for a label that is not a string, names no subset or names more than
    one.

    A ground that :func:`powerset_lattice` takes, whose point labels hold
    no comma and no flanking space (as on every comma-free ground a space
    document may have), spells each subset one way, so a canonical label
    is looked up among that powerset's labels.  Any other label is parsed
    by :func:`_label_parses`: a label of ``F`` comma-split fragments costs
    at most ``F`` steps per distinct comma count of the point labels, each
    over the subsets that spell the fragments so far (at most ``2^k`` on
    ``k`` points), instead of one try per grouping of the fragments.  The
    lenient parse runs only when the strict one finds nothing.
    """
    index = {p: i for i, p in enumerate(ground)}
    spans = sorted({p.count(",") + 1 for p in ground})
    plain = len(index) == len(ground) <= _POWERSET_BUDGET and all(
        p and "," not in p and p == p.strip() for p in ground
    )
    known = powerset_lattice(ground).positions if plain else {}

    def read(label: Any) -> int:
        if not isinstance(label, str):
            raise DocumentError(f"subset label must be a string, got {label!r}")
        if label in known:
            return known[label]
        body = label.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise DocumentError(f"subset label {label!r} is not brace-delimited")
        inner = body[1:-1]
        if not inner.strip():
            return 0
        fragments = inner.split(",")
        found = _label_parses(index, spans, fragments, False) or _label_parses(
            index, spans, fragments, True
        )
        if not found:
            raise DocumentError(f"{label!r} does not name a subset of {list(ground)}")
        if len(found) > 1:
            raise DocumentError(f"subset label {label!r} is ambiguous")
        return found.pop()

    return read


def subset_mask(ground: Sequence[str], label: str) -> int:
    """The subset of ``ground`` named by ``label``, read by
    :func:`subset_reader`."""
    return subset_reader(ground)(label)


_POWERSET_BUDGET = 12
_COVERS_BUDGET = 1024


def _mask_lattice(name: str, elements: Sequence[str]) -> FiniteLattice:
    """The Boolean algebra on ``2^k`` elements indexed by subset mask of
    ``k`` generators: meet is ``&`` and join is ``|``."""
    n = len(elements)
    # the subsets of a | bit are those of a, each with and without bit
    down = _subset_folds([1 << d for d in range(n.bit_length() - 1)], lambda r, b: r | r << b, 1)
    up = tuple(down[n - 1 ^ i] << i for i in range(n))  # i | s = i + s for s outside i
    return FiniteLattice(
        name, tuple(elements), up, tuple(down), 0, n - 1, operator.and_, operator.or_
    )


@lru_cache(maxsize=None)
def _powerset_lattice_cached(ground: tuple[str, ...]) -> FiniteLattice:
    labels = [subset_label(ground, m) for m in range(1 << len(ground))]
    if len(set(labels)) != len(labels):
        raise NotALattice(f"ground labels {list(ground)} give two subsets one label")
    return _mask_lattice("P(" + ",".join(ground) + ")", labels)


def powerset_lattice(ground: Sequence[str]) -> FiniteLattice:
    """The powerset lattice of a finite set, with subset-mask element indices.

    Results are cached per ground tuple, so repeated calls return the *same*
    carrier object — important because structures compare carriers by identity.
    Raises :class:`NotALattice` for a ground whose subset labels are not
    distinct (``a``, ``b`` and ``a,b`` all give ``{a,b}``): every element of
    a carrier is named by its label.
    """
    if len(set(ground)) != len(ground) or any(not g for g in ground):
        raise NotALattice("ground labels must be unique and non-empty")
    if len(ground) > _POWERSET_BUDGET:
        raise BudgetExceeded(
            f"powerset lattice over {len(ground)} generators exceeds the budget of "
            f"{_POWERSET_BUDGET}"
        )
    return _powerset_lattice_cached(tuple(ground))


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """A finite poset: labels plus reflexive down-rows (bit ``j`` of
    ``below[i]`` set iff ``j <= i``)."""

    labels: tuple[str, ...]
    below: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @derived
    def downsets(self) -> tuple[int, ...]:
        """The down-closed subsets as point masks, ordered by (size, mask),
        which is a linear extension of inclusion (see :func:`_union_closure`)."""
        return tuple(sorted(_union_closure(self.below), key=lambda m: (m.bit_count(), m)))


def _union_closure(below: Iterable[int]) -> set[int]:
    """Every union of some of the ``below`` rows, the empty one included:
    the down-sets, when the rows are the reflexive down-rows of a preorder.
    Each row at most doubles the family, so O(k) unions per down-set."""
    family = {0}
    for row in below:
        family |= {s | row for s in family}
    return family


def _subset_folds(values: Sequence[Any], op: Callable[[Any, Any], Any], start: Any) -> list[Any]:
    """Entry ``a`` is ``op`` folded from ``start`` over ``values[i]`` for
    the set bits ``i`` of ``a``, in increasing order: the table doubles once
    per value, each new entry one ``op`` on an old one, so O(2^k) steps for
    ``k`` values instead of O(2^k · k) for folding every subset anew."""
    table = [start]
    for v in values:
        table += [op(t, v) for t in table]
    return table


def poset_from_covers(
    labels: Sequence[str], covers: Iterable[tuple[int | str, int | str]]
) -> FinitePoset:
    _check_labels(labels)
    _, down = _closure_from_covers(len(labels), _resolve_pairs(labels, covers))
    return FinitePoset(labels=tuple(labels), below=tuple(down))


def downset_lattice(poset: FinitePoset, name: str | None = None) -> FiniteLattice:
    """The lattice of down-closed subsets of a poset, ordered by inclusion.

    This is always a distributive lattice; meets and joins are set
    intersection and union.  Elements are ordered by (size, mask), which is a
    linear extension.
    """
    if poset.n > 16:
        raise BudgetExceeded("downset lattice over more than 16 poset elements")
    masks = poset.downsets
    return _lattice_of_order(
        name or "D(" + ",".join(poset.labels) + ")",
        [subset_label(poset.labels, m) for m in masks],
        *_inclusion_rows(masks),
    )


def dualize(lattice: FiniteLattice) -> FiniteLattice:
    """The order-dual of a lattice (meets and joins swapped).

    The dual is kept with the lattice, linked both ways, so
    ``dualize(dualize(L)) is L``.  This is the single orientation primitive:
    frame-oriented inputs are turned into the coframe the engine works with
    by dualizing once at the boundary.
    """
    return lattice.dual


def cover_pairs(lattice: FiniteLattice) -> list[tuple[str, str]]:
    """The cover relation as (lower, higher) label pairs, for serialization."""
    labels = lattice.elements
    return [(labels[i], labels[j]) for j, lows in enumerate(lattice.covers) for i in lows]


def sublattice(
    lattice: FiniteLattice, members: Iterable[int], name: str | None = None
) -> tuple[FiniteLattice, list[int]]:
    """The sublattice on ``members`` (must be meet/join closed).

    Returns the new lattice together with the list mapping new indices to
    indices in the ambient lattice.  Raises :class:`NotASublattice` with a
    witness pair when the subset is not closed.
    """
    idx = sorted(set(members), key=lambda i: (lattice.down[i].bit_count(), i))
    require_sublattice(lattice, idx)
    sub = _lattice_of_order(
        name or lattice.name + "|sub",
        [lattice.label(a) for a in idx],
        *_inclusion_rows([lattice.down[a] for a in idx]),
    )
    return sub, idx


# ---------------------------------------------------------------------------
# analysis


@dataclass(frozen=True)
class LatticeReport:
    """Derived structure of a lattice, written down from the
    join-irreducibles on every distributive carrier and scanned on the
    others (see ``_analysis``).

    All element sets are bitmasks over element indices.  Every field is
    exact on every finite lattice, distributive or not, and is defined
    through ``m(x) = sup{s : x is not below s}``:

    - ``join_primes``: ``x`` with ``x <= a v b`` only if ``x <= a`` or
      ``x <= b`` (bottom excluded), i.e. ``x`` not below ``m(x)``;
    - ``meet_primes``: dually, ``x`` not above ``inf{s : s is not below x}``;
    - ``distributive``: every join-irreducible element is join-prime
      (Birkhoff);
    - ``wwb_below[j]``: the ``i`` such that every family whose supremum
      dominates ``j`` contains a member above ``i`` (the "way-way-below"
      relation used for prime-continuity), i.e. ``j`` not below ``m(i)``,
      since ``{s : i is not below s}`` is the largest family without a
      member above ``i``.
    """

    distributive: bool
    complemented: int
    complement: tuple[int, ...]
    join_primes: int
    meet_primes: int
    spatial: bool
    prime_continuous: bool
    wwb_below: tuple[int, ...]


def _fold(
    op: Callable[[int, int], int],
    rows: Sequence[int],
    acc: int,
    mask: int,
    from_high: bool,
) -> int:
    """``op`` (a join with ``down`` rows, or a meet with ``up`` rows) over
    the members of ``mask``, starting at ``acc``.

    Members already absorbed by the running result are skipped, so a join
    that picks maximal members first takes one step per maximal member.
    Mask, down-set and sublattice carriers index their elements along a
    linear extension (their duals against one), so callers read
    ``from_high`` off the carrier's ``bottom`` and ``top``: a join picks from
    high indices when ``bottom < top``, a meet when ``bottom > top``.  Any
    pick order gives the same result.
    """
    while mask:
        s = mask.bit_length() - 1 if from_high else (mask & -mask).bit_length() - 1
        acc = op(acc, s)
        mask &= ~rows[acc]
    return acc


def analyze(lattice: FiniteLattice) -> LatticeReport:
    """Derived structure: distributivity, complemented part, primes,
    spatiality, prime-continuity, way-way-below rows (see
    :class:`LatticeReport`).

    A Boolean algebra indexed by subset mask gets its report in closed form
    in O(n) steps.  Every other carrier is read off its lower covers: one
    join ``m(j)`` per join-irreducible ``j`` decides distributivity (on a
    distributive carrier ``{s : j is not below s}`` is the down-set of
    ``m(j)``, so a carrier indexed along a linear extension folds it in one
    join), and the rest of the report follows from the join-irreducibles
    by one pass over the covers in rank order and one dict lookup per
    element, with no lattice operation.  Only a carrier that is not
    distributive pays the O(n^2) scan.  Every answer is exact and no path
    is exponential or sampled.  The report is built once per carrier and
    kept with it (``FiniteLattice.report``).
    """
    return lattice.report


def mask_boolean(lattice: FiniteLattice) -> bool:
    """Whether ``lattice`` is a Boolean algebra indexed by subset mask (a
    powerset or a sublocale lattice, or the dual of one)."""
    return lattice.meet in (operator.and_, operator.or_)


def _analysis(lattice: FiniteLattice) -> LatticeReport:
    """The :func:`analyze` report, in closed form on every distributive carrier.

    On a Boolean algebra indexed by subset mask it needs no covers: the
    singletons are the join-primes, their complements the meet-primes, ``i``
    complements to ``n-1 ^ i``, and ``i`` is way-way-below ``j`` iff ``i`` is
    a singleton inside ``j``, or bottom and ``j`` is not.  On the dual each
    moves along ``x -> n-1 ^ x``, an order isomorphism.

    Every other carrier is read off its join-irreducibles ``J``, the elements
    with exactly one lower cover, and one join ``m(j) = sup{s : j is not
    below s}`` per ``j`` in ``J``.  It is distributive iff no ``j`` lies
    below its ``m(j)``, i.e. every join-irreducible is join-prime (Birkhoff);
    only a carrier that is not pays :func:`_scan_analysis`.  On a
    distributive carrier ``x -> c(x) = down[x] & J`` is a lattice
    isomorphism onto the down-sets of ``J`` (Davey & Priestley,
    *Introduction to Lattices and Order*, ch. 5), so:

    - the join-primes are ``J`` and the meet-primes are the ``m(j)``;
    - ``x`` is complemented iff ``J & ~c(x)`` is the coordinate of some
      element, which is then its one complement;
    - ``x`` is not below ``m(i)`` iff some ``q`` in ``c(x)`` lies above
      ``i`` (every ``s`` above such a ``q`` is above ``i``), so
      ``wwb_below[x]`` is the union of ``down[q]`` over ``q`` in ``c(x)``:
      ``down[x]`` for ``x`` in ``J``, else the union of the rows of its
      lower covers, folded in rank order;
    - every element is the join of ``c(x)`` and of its ``wwb_below`` row,
      so the carrier is spatial and prime-continuous.
    """
    n, bottom, down = lattice.n, lattice.bottom, lattice.down
    if mask_boolean(lattice):
        singletons = [bottom ^ 1 << b for b in range(n.bit_length() - 1)]
        wwb = _subset_folds([1 << bottom | 1 << s for s in singletons], operator.or_, 0)
        return LatticeReport(
            distributive=True, spatial=True, prime_continuous=True,
            complemented=lattice.full_mask,
            complement=tuple(n - 1 ^ i for i in range(n)),
            join_primes=sum(1 << s for s in singletons),
            meet_primes=sum(1 << (n - 1 ^ s) for s in singletons),
            wwb_below=tuple(wwb[bottom ^ j] for j in range(n)),
        )
    covers, up, high = lattice.covers, lattice.up, bottom < lattice.top
    irreducible = [j for j, lows in enumerate(covers) if len(lows) == 1]
    m = [_fold(lattice.join, down, bottom, lattice.full_mask & ~up[j], high) for j in irreducible]
    if any(up[j] >> v & 1 for j, v in zip(irreducible, m)):
        return _scan_analysis(lattice)
    J = sum(1 << j for j in irreducible)
    of_coordinate = {row & J: x for x, row in enumerate(down)}
    complement = tuple(of_coordinate.get(J & ~row, -1) for row in down)
    wwb = [0] * n
    for x in lattice.ranked:
        lows = covers[x]
        wwb[x] = down[x] if len(lows) == 1 else reduce(operator.or_, [wwb[c] for c in lows], 0)
    return LatticeReport(
        distributive=True, spatial=True, prime_continuous=True,
        complemented=sum(1 << x for x, c in enumerate(complement) if c >= 0),
        complement=complement,
        join_primes=J,
        meet_primes=sum(1 << v for v in m),
        wwb_below=tuple(wwb),
    )


def _scan_analysis(lattice: FiniteLattice) -> LatticeReport:
    """The report on any finite lattice, by O(n^2) lattice operations: the
    path of carriers that are not distributive, and the oracle of the
    closed forms in the test suite."""
    n, full = lattice.n, lattice.full_mask
    up, down, bottom, top = lattice.up, lattice.down, lattice.bottom, lattice.top
    high = bottom < top

    def sup(mask: int) -> int:
        return _fold(lattice.join, down, bottom, mask, high)

    # complemented elements and a canonical complement (least index)
    complemented, complement = 0, [-1] * n
    for x in range(n):
        for y in range(n):
            if lattice.meet(x, y) == bottom and lattice.join(x, y) == top:
                complemented |= 1 << x
                complement[x] = y
                break
    m = [sup(full & ~up[x]) for x in range(n)]
    join_primes = sum(1 << x for x in range(n) if not up[x] >> m[x] & 1)
    meet_primes = sum(
        1 << x for x in range(n) if not down[x] >> lattice.meet_mask(full & ~down[x]) & 1
    )
    # Join-primes are join-irreducible; the lattice is distributive iff the
    # converse holds: every other element is the join of those below it.
    distributive = all(sup(down[x] ^ 1 << x) == x for x in bits(full & ~join_primes))
    spatial = all(sup(join_primes & down[x]) == x for x in range(n))
    # i is way-way-below j iff j is not below m(i); group the i by m(i).
    by_m: dict[int, int] = {}
    for i, v in enumerate(m):
        by_m[v] = by_m.get(v, 0) | 1 << i
    wwb = tuple(
        sum(group for v, group in by_m.items() if not up[j] >> v & 1)
        for j in range(n)
    )
    prime_continuous = all(sup(wwb[x]) == x for x in range(n))
    return LatticeReport(
        distributive=distributive,
        complemented=complemented,
        complement=tuple(complement),
        join_primes=join_primes,
        meet_primes=meet_primes,
        spatial=spatial,
        prime_continuous=prime_continuous,
        wwb_below=wwb,
    )


def pseudocomplement(lattice: FiniteLattice, x: int) -> int:
    """The largest element whose meet with ``x`` is bottom.

    Exists in every finite distributive lattice; raises
    :class:`NotDistributive` when the candidate join fails the defining
    property (as happens e.g. in the diamond M3).
    """
    if mask_boolean(lattice):
        return lattice.n - 1 ^ x
    candidates = [
        m for m in range(lattice.n) if lattice.meet(x, m) == lattice.bottom
    ]
    z = lattice.join_of(candidates)
    if lattice.meet(x, z) != lattice.bottom:
        raise NotDistributive(
            f"{lattice.name}: {lattice.label(x)!r} has no pseudocomplement"
        )
    return z


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True, eq=False)
class LatticeMorphism:
    """A map between lattices given by its value table.

    ``kind`` states what the map is claimed to preserve:

    - ``"coframe"``: arbitrary infima and finite suprema (including bounds);
    - ``"lattice"``: binary meet/join and bounds;
    - ``"monotone"``: order only.

    Validated on construction: a broken law or an unknown kind raises
    :class:`NotAMorphism` with the witness of :func:`morphism_violation`.
    Producers of valid tables use the trusted constructor ``lattice._trusted``.
    """

    source: FiniteLattice
    target: FiniteLattice
    values: tuple[int, ...]
    kind: str = "coframe"

    def __post_init__(self) -> None:
        violation = morphism_violation(self)
        if violation is not None:
            raise NotAMorphism(f"{self!r}: {violation}")

    def __call__(self, i: int) -> int:
        return self.values[i]

    @derived
    def adjoint(self) -> LatticeMorphism:
        """The least-preimage map ``m -> inf{l : m <= phi(l)}``, monotone for
        every kind and the left adjoint of an infima-preserving map."""
        src, tgt, vals = self.source, self.target, self.values
        preimage = tuple(
            src.meet_of(l for l, v in enumerate(vals) if row >> v & 1) for row in tgt.up
        )
        return _trusted(LatticeMorphism, source=tgt, target=src, values=preimage, kind="monotone")

    def __repr__(self) -> str:
        return (
            f"LatticeMorphism({self.source.name!r} -> {self.target.name!r}, "
            f"kind={self.kind!r})"
        )


def _table_violation(
    src: FiniteLattice, tgt: FiniteLattice, vals: Sequence[int], kind: str
) -> str | None:
    """:func:`morphism_violation` of the value table ``vals`` as a ``kind`` map."""
    if kind not in ("coframe", "lattice", "monotone"):
        return f"unknown kind {kind!r}"
    if len(vals) != src.n or any(not 0 <= v < tgt.n for v in vals):
        return "value table does not match the carriers"
    lbl_s, lbl_t = src.label, tgt.label
    if kind == "monotone":
        for x in range(src.n):
            for y in bits(src.up[x]):
                if not tgt.leq(vals[x], vals[y]):
                    return f"not monotone at {lbl_s(x)!r} <= {lbl_s(y)!r}"
        return None
    if vals[src.bottom] != tgt.bottom:
        return f"bottom maps to {lbl_t(vals[src.bottom])!r}, not bottom"
    if vals[src.top] != tgt.top:
        return f"top maps to {lbl_t(vals[src.top])!r}, not top"
    for x in range(src.n):
        for y in range(x, src.n):
            if vals[src.meet(x, y)] != tgt.meet(vals[x], vals[y]):
                return f"binary meet broken at {lbl_s(x)!r}, {lbl_s(y)!r}"
            if vals[src.join(x, y)] != tgt.join(vals[x], vals[y]):
                return f"binary join broken at {lbl_s(x)!r}, {lbl_s(y)!r}"
    return None


def morphism_violation(phi: LatticeMorphism) -> str | None:
    """First violated law of ``phi`` (human-readable), or None; the check
    that construction runs, and the oracle on trusted builds.

    For coframe morphisms the empty-family laws mean both bounds must be
    preserved.  On a finite carrier every infimum is a finite meet, so the
    bound and binary cases imply arbitrary infima; the test suite checks
    this against a scan over every subset on the small fixtures.
    """
    return _table_violation(phi.source, phi.target, phi.values, phi.kind)


def check_morphism(phi: LatticeMorphism) -> bool:
    """Whether ``phi`` satisfies the laws of its declared kind."""
    return morphism_violation(phi) is None


def require_sublattice(lattice: FiniteLattice, members: Sequence[int]) -> None:
    """Raise :class:`NotASublattice` with the first pair, in the order of
    ``members``, whose meet or join falls outside them."""
    inside = set(members)
    for a in members:
        for b in members:
            for op, word in ((lattice.meet, "meet"), (lattice.join, "join")):
                r = op(a, b)
                if r not in inside:
                    raise _outside(lattice, word, a, b, r)


def _outside(lattice: FiniteLattice, word: str, a: int, b: int, r: int) -> NotASublattice:
    return NotASublattice(
        f"{word} of {lattice.label(a)!r} and {lattice.label(b)!r} "
        f"is {lattice.label(r)!r}, outside the subset"
    )


def require_distributive(lattice: FiniteLattice, what: str) -> None:
    if not lattice.report.distributive:
        raise NotDistributive(f"{lattice.name}: {what} live on distributive lattices")


def require_same_carrier(a: FiniteLattice, b: FiniteLattice, what: str) -> None:
    if a is not b:
        raise LatticeMismatch(f"{what}: {a.name!r} is not {b.name!r}")


def left_adjoint(phi: LatticeMorphism) -> LatticeMorphism:
    """The left adjoint of an infima-preserving map.

    For a coframe or lattice morphism ``phi: L -> M`` this is the map
    ``M -> L`` sending ``m`` to the least ``l`` with ``m <= phi(l)``:
    ``phi`` preserves that meet, so ``m <= phi(l)`` iff ``adj(m) <= l`` (the
    test suite checks the adjunction on every morphism of its corpus).  It
    is kept on the morphism (``adjoint``).  A monotone map is refused.
    """
    if phi.kind == "monotone":
        raise NotAMorphism(f"{phi!r}: a left adjoint needs an infima-preserving map")
    return phi.adjoint


def identity_morphism(lattice: FiniteLattice) -> LatticeMorphism:
    return _trusted(
        LatticeMorphism,
        source=lattice,
        target=lattice,
        values=tuple(range(lattice.n)),
        kind="coframe",
    )


def compose(outer: LatticeMorphism, inner: LatticeMorphism) -> LatticeMorphism:
    """``outer ∘ inner`` (checks the carriers match)."""
    require_same_carrier(inner.target, outer.source, "composition")
    kind = outer.kind if outer.kind == inner.kind else "monotone"
    return _trusted(
        LatticeMorphism,
        source=inner.source,
        target=outer.target,
        values=tuple(outer.values[v] for v in inner.values),
        kind=kind,
    )
