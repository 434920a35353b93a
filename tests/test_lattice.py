"""Lattice core: construction, analysis (with brute-force oracles), morphisms."""

from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coframes import (
    BudgetExceeded,
    ConvergenceStructure,
    CyclicCovers,
    EngineError,
    Filter,
    NotALattice,
    NotAMorphism,
    NotASublattice,
    NotDistributive,
    UnknownLabel,
    analyze,
    build_lattice,
    check_morphism,
    classify,
    cover_pairs,
    downset_lattice,
    dualize,
    left_adjoint,
    morphism_violation,
    poset_from_covers,
    powerset_lattice,
    pseudocomplement,
    restrict_complemented,
    s1,
    sublattice,
    sublocale_lattice,
)
from coframes.lattice import (
    FiniteLattice,
    LatticeMorphism,
    _analysis,
    _scan_analysis,
    _table_violation,
    _trusted,
    bits,
    mask_boolean,
)
from coframes.fixtures import (
    lattice_fixture,
    lattice_fixture_names,
    random_downset_lattice,
    random_poset,
)
from coframes.search import small_coframes
from coframes.topology import enumerate_topologies, wedge_C


def mask_of(lat, labels):
    return sum(1 << lat.index(l) for l in labels)


@st.composite
def posets(draw, max_size: int = 4):
    size = draw(st.integers(min_value=1, max_value=max_size))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    labels = tuple(f"p{i}" for i in range(size))
    return poset_from_covers(labels, [(labels[i], labels[j]) for i, j in chosen])


# ---------------------------------------------------------------------------
# oracles: the literal definitions behind ``analyze``


def distributive_by_triples(lat) -> bool:
    """x ∧ (y ∨ z) = (x ∧ y) ∨ (x ∧ z) for every triple."""
    meet, join = lat.meet, lat.join
    return all(
        meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
        for x in range(lat.n)
        for y in range(lat.n)
        for z in range(lat.n)
    )


def join_primes_by_scan(lat) -> int:
    """x ≠ ⊥ with x ≤ a ∨ b only if x ≤ a or x ≤ b."""
    out = 0
    for x in range(lat.n):
        if x != lat.bottom and all(
            lat.leq(x, a) or lat.leq(x, b)
            for a in range(lat.n)
            for b in range(lat.n)
            if lat.leq(x, lat.join(a, b))
        ):
            out |= 1 << x
    return out


def meet_primes_by_scan(lat) -> int:
    """x ≠ ⊤ with a ∧ b ≤ x only if a ≤ x or b ≤ x."""
    out = 0
    for x in range(lat.n):
        if x != lat.top and all(
            lat.leq(a, x) or lat.leq(b, x)
            for a in range(lat.n)
            for b in range(lat.n)
            if lat.leq(lat.meet(a, b), x)
        ):
            out |= 1 << x
    return out


def wwb_brute_force(lat) -> tuple[int, ...]:
    """Way-way-below rows by scanning every family of elements.

    ``i`` is way-way-below ``j`` iff every subset ``S`` with ``j <= sup S``
    contains some ``s >= i``.  Exponential in ``lat.n``.
    """
    n = lat.n
    assert n <= 16, "2**n family scan"
    full = lat.full_mask
    not_wwb = [0] * n  # not_wwb[j]: mask of i refuted as way-way-below j
    sup = [lat.bottom] * (1 << n)
    covered = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        e = low.bit_length() - 1
        rest = s ^ low
        sup[s] = lat.join(sup[rest], e)
        covered[s] = covered[rest] | lat.down[e]
        gap = full & ~covered[s]
        if gap:
            for j in bits(lat.down[sup[s]]):
                not_wwb[j] |= gap
    # the empty family: sup is bottom, nothing is covered
    not_wwb[lat.bottom] = full
    return tuple(full & ~row for row in not_wwb)


def infimum_violation_by_subsets(phi) -> int | None:
    """The coframe-infimum law by definition: the infimum of every subset of
    the source maps to the infimum of the images.  Returns the first subset
    (as a mask) whose infimum is not preserved, or None."""
    src, tgt, vals = phi.source, phi.target, phi.values
    size = 1 << src.n
    meet_src = [src.top] * size
    meet_img = [tgt.top] * size
    for s in range(1, size):
        low = s & -s
        e = low.bit_length() - 1
        meet_src[s] = src.meet(meet_src[s ^ low], e)
        meet_img[s] = tgt.meet(meet_img[s ^ low], vals[e])
        if vals[meet_src[s]] != meet_img[s]:
            return s
    return None


def closure_system_lattice(rng: random.Random, ground: int):
    """A random family of subsets of ``ground`` points, closed under
    intersection and holding the whole set, ordered by inclusion: a lattice
    with at most ``2**ground`` elements, often non-distributive."""
    full = (1 << ground) - 1
    sets = {full}
    for _ in range(rng.randint(1, 2 * ground)):
        sets.add(rng.randrange(full + 1))
    while True:
        more = {a & b for a in sets for b in sets} - sets
        if not more:
            break
        sets |= more

    def between(a, b):
        return any(a & c == a and c & b == c and c not in (a, b) for c in sets)

    covers = [
        (f"s{a}", f"s{b}")
        for a in sets
        for b in sets
        if a != b and a & b == a and not between(a, b)
    ]
    return build_lattice("CLOSURE", [f"s{m}" for m in sorted(sets)], covers)


def chain_under_m3(length: int):
    """A ``length``-chain with the diamond M3 on top (non-distributive)."""
    chain = [f"c{i}" for i in range(length)]
    covers = list(zip(chain, chain[1:]))
    covers += [(chain[-1], x) for x in "abc"] + [(x, "t") for x in "abc"]
    return build_lattice(f"CHAIN{length}+M3", chain + ["a", "b", "c", "t"], covers)


def oracle_corpus():
    fixtures = [lattice_fixture(name) for name in lattice_fixture_names()]
    rng = random.Random(20260418)
    closures = [closure_system_lattice(rng, rng.choice((3, 4))) for _ in range(200)]
    return (
        fixtures
        + [dualize(lat) for lat in fixtures]
        + list(small_coframes(8))
        + closures
    )


# ---------------------------------------------------------------------------
# oracle: the meet and join tables by scanning the common bounds


def tables_by_scan(lat):
    """Bottoms, tops, and the meet and join tables (``None`` where a pair
    has none) by the O(n^3) scan for the common bound whose own row is the
    whole common row."""
    n, full, up, down = lat.n, lat.full_mask, lat.up, lat.down

    def extremum(common, rows):
        return next((z for z in bits(common) if rows[z] == common), None)

    return (
        [i for i in range(n) if up[i] == full],
        [i for i in range(n) if down[i] == full],
        [[extremum(down[x] & down[y], down) for y in range(n)] for x in range(n)],
        [[extremum(up[x] & up[y], up) for y in range(n)] for x in range(n)],
    )


def table_corpus():
    """Fixtures, every carrier of up to 8 elements and its dual, seeded
    random down-set lattices, the closed parts of every topology on the
    carriers of up to 6 elements, and five sublocale lattices."""
    fixtures = [lattice_fixture(name) for name in lattice_fixture_names()]
    coframes = list(small_coframes(8))
    rng = random.Random(20261018)
    closed_parts = [
        wedge_C(ts)[0] for lat in small_coframes(6) for ts in enumerate_topologies(lat)
    ]
    sublocales = [
        sublocale_lattice(lattice_fixture(name)).lattice
        for name in ("CHAIN2", "CHAIN3", "CHAIN4", "BOOL2", "V5")
    ]
    return (
        fixtures
        + coframes
        + [dualize(lat) for lat in coframes]
        + [random_downset_lattice(rng) for _ in range(200)]
        + closed_parts
        + sublocales
    )


class TestTablesOracle:
    @pytest.fixture(scope="class")
    def corpus(self):
        return table_corpus()

    def test_tables_and_bounds_match_the_scan(self, corpus):
        for lat in corpus:
            bottoms, tops, meet, join = tables_by_scan(lat)
            assert bottoms == [lat.bottom] and tops == [lat.top], lat
            every = range(lat.n)
            assert meet == [[lat.meet(x, y) for y in every] for x in every], lat
            assert join == [[lat.join(x, y) for y in every] for x in every], lat

    def test_comp_above_is_the_meet_of_the_complemented_elements_above(self, corpus):
        for lat in corpus:
            comp = analyze(lat).complemented
            expected = tuple(lat.meet_of(bits(row & comp)) for row in lat.up)
            assert lat.comp_above == expected, lat
            if analyze(lat).distributive:
                # the complemented part is a sublattice: the meet is its least member above
                assert all(
                    comp >> c & 1 and lat.leq(l, c) for l, c in enumerate(lat.comp_above)
                ), lat

    def test_restrict_complemented_matches_its_members_on_m3_and_n5(self):
        for lat in (lattice_fixture("M3"), lattice_fixture("N5"), chain_under_m3(2)):
            comp = analyze(lat).complemented
            for g in range(lat.n):
                kept = lat.up[g] & comp
                # the filter generated by the complemented members: the
                # intersection of the filters that hold all of them
                members = lat.full_mask
                for h in range(lat.n):
                    if lat.up[h] & kept == kept:
                        members &= lat.up[h]
                restricted = restrict_complemented(Filter(lat, g))
                assert restricted.members == members, (lat, g)
                assert restricted.members & comp == kept, (lat, g)


class TestConstruction:
    def test_chain_order(self):
        c3 = lattice_fixture("CHAIN3")
        lo, m, hi = c3.index("0"), c3.index("m"), c3.index("1")
        assert c3.bottom == lo and c3.top == hi
        assert c3.leq(lo, m) and c3.leq(m, hi) and not c3.leq(hi, m)
        assert c3.meet(m, hi) == m and c3.join(lo, m) == m

    def test_single_element_lattice_is_legal(self):
        one = build_lattice("ONE", ("x",), [])
        assert one.bottom == one.top == 0
        rep = analyze(one)
        assert rep.distributive and rep.spatial
        assert rep.complemented == 1  # bottom is complemented (by itself)

    def test_missing_top_rejected(self):
        # two maximal elements above a common bottom: no global top
        with pytest.raises(NotALattice, match="missing global bottom or top"):
            build_lattice("VEE", ("0", "a", "b"), [("0", "a"), ("0", "b")])

    def test_missing_meet_rejected(self):
        # bowtie: a, b below c, d — pairs (a,b) and (c,d) lack join/meet
        with pytest.raises(
            NotALattice, match="no meet for 'c', 'd'|no join for 'a', 'b'"
        ):
            build_lattice(
                "BOWTIE",
                ("0", "a", "b", "c", "d", "1"),
                [("0", "a"), ("0", "b")]
                + [(x, y) for x in "ab" for y in "cd"]
                + [("c", "1"), ("d", "1")],
            )

    def test_cyclic_covers_rejected(self):
        with pytest.raises(CyclicCovers):
            build_lattice("CYC", ("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(CyclicCovers):
            build_lattice("LOOP", ("a", "b"), [("a", "a"), ("a", "b")])

    def test_colliding_powerset_labels_rejected(self):
        # the pair {a, b} and the singleton {"a,b"} would share the label {a,b}
        with pytest.raises(NotALattice, match="one label"):
            powerset_lattice(("a", "b", "a,b"))
        assert len(set(powerset_lattice(("b", "a", "b,a")).elements)) == 8

    def test_duplicate_labels_rejected(self):
        with pytest.raises(NotALattice):
            build_lattice("DUP", ("a", "a"), [])

    def test_unknown_label_is_an_engine_error_and_a_key_error(self):
        with pytest.raises(UnknownLabel) as err:
            lattice_fixture("CHAIN3").index("nowhere")
        assert isinstance(err.value, KeyError) and isinstance(err.value, EngineError)

    def test_every_label_of_a_large_carrier_round_trips(self):
        p12 = powerset_lattice(tuple("abcdefghijkl"))
        assert [p12.index(p12.label(i)) for i in range(p12.n)] == list(range(4096))
        with pytest.raises(UnknownLabel):
            p12.index("{m}")
        # the dual has the same labels at the same positions
        assert p12.dual.index("{a,l}") == p12.index("{a,l}")

    def test_powerset_masks_and_labels(self):
        b2 = powerset_lattice(("0", "1"))
        assert b2.n == 4 and b2.bottom == 0 and b2.top == 3
        assert b2.elements == ("{}", "{0}", "{1}", "{0,1}")
        assert b2.meet(1, 2) == 0 and b2.join(1, 2) == 3
        assert b2.leq(1, 3) and not b2.leq(3, 1)
        # cached: same carrier object every call
        assert powerset_lattice(("0", "1")) is b2

    def test_powerset_label_sorting_is_lexicographic(self):
        p = powerset_lattice(("b", "a"))
        assert p.elements[3] == "{a,b}"

    def test_downsets_of_vee_poset(self):
        v5 = lattice_fixture("V5")
        assert v5.n == 5
        assert set(v5.elements) == {"{}", "{a}", "{b}", "{a,b}", "{a,b,c}"}
        a, b = v5.index("{a}"), v5.index("{b}")
        assert v5.meet(a, b) == v5.bottom
        assert v5.label(v5.join(a, b)) == "{a,b}"

    def test_downsets_with_the_top_point_listed_first(self):
        poset = poset_from_covers(("c", "a", "b"), [("a", "c"), ("b", "c")])
        lat = downset_lattice(poset)
        assert lat.elements == ("{}", "{a}", "{b}", "{a,b}", "{a,b,c}")

    def test_rank_order_is_linear_extension(self):
        for name in lattice_fixture_names():
            lat = lattice_fixture(name)
            order = lat.rank_order()
            pos = {x: k for k, x in enumerate(order)}
            for i in range(lat.n):
                for j in bits(lat.up[i]):
                    assert pos[i] <= pos[j]

    def test_cover_pairs_round_trip(self):
        for name in ("CHAIN4", "V5", "M3", "N5"):
            lat = lattice_fixture(name)
            rebuilt = build_lattice(lat.name, lat.elements, cover_pairs(lat))
            assert rebuilt.up == lat.up and rebuilt.down == lat.down


class TestAnalysis:
    def test_distributivity_flags(self):
        for name in ("CHAIN3", "BOOL2", "PX3", "V5", "CHAIN5"):
            assert analyze(lattice_fixture(name)).distributive, name
        for name in ("M3", "N5"):
            assert not analyze(lattice_fixture(name)).distributive, name

    def test_complemented_parts(self):
        b2 = lattice_fixture("BOOL2")
        assert analyze(b2).complemented == b2.full_mask
        c3 = lattice_fixture("CHAIN3")
        assert analyze(c3).complemented == mask_of(c3, ["0", "1"])
        v5 = lattice_fixture("V5")
        assert analyze(v5).complemented == mask_of(v5, ["{}", "{a,b,c}"])
        m3 = lattice_fixture("M3")
        # every atom of the diamond has (two) complements
        assert analyze(m3).complemented == m3.full_mask

    def test_complement_involution_on_boolean(self):
        b3 = lattice_fixture("PX3")
        rep = analyze(b3)
        for x in range(b3.n):
            c = rep.complement[x]
            assert b3.meet(x, c) == b3.bottom and b3.join(x, c) == b3.top
            assert rep.complement[c] == x

    def test_birkhoff_primes_of_downset_lattice(self):
        # join-primes of a downset lattice are exactly the principal downsets
        poset = poset_from_covers(("a", "b", "c"), [("a", "c"), ("b", "c")])
        lat = downset_lattice(poset)
        primes = {lat.label(i) for i in bits(analyze(lat).join_primes)}
        assert primes == {"{a}", "{b}", "{a,b,c}"}

    def test_m3_has_no_join_primes_and_is_not_spatial(self):
        rep = analyze(lattice_fixture("M3"))
        assert rep.join_primes == 0
        assert not rep.spatial

    def test_n5_not_spatial(self):
        n5 = lattice_fixture("N5")
        rep = analyze(n5)
        assert rep.join_primes == mask_of(n5, ["a", "b"])
        assert not rep.spatial

    def test_distributive_implies_spatial_implies_prime_continuous(self):
        for name in lattice_fixture_names():
            rep = analyze(lattice_fixture(name))
            if rep.distributive:
                assert rep.spatial and rep.prime_continuous, name
            if rep.spatial:
                assert rep.prime_continuous, name

    def test_wwb_bottom_rows(self):
        # nothing sits way-way-below bottom (the empty family covers it),
        # while bottom is way-way-below everything else
        for name in ("CHAIN3", "BOOL2", "PX3", "M3"):
            lat = lattice_fixture(name)
            rows = analyze(lat).wwb_below
            assert rows[lat.bottom] == 0, name
            for j in range(lat.n):
                if j != lat.bottom:
                    assert rows[j] >> lat.bottom & 1, name

    def test_wwb_join_irreducible_top(self):
        # a non-prime element can be way-way-below a join-irreducible top:
        # every cover of V5's top contains the top itself
        v5 = lattice_fixture("V5")
        rows = analyze(v5).wwb_below
        ab = v5.index("{a,b}")
        assert rows[v5.top] >> ab & 1
        assert rows[v5.top] >> v5.top & 1

    def test_powerset_wwb_is_singleton_containment(self):
        # ground truth: A is way-way-below B iff A is empty (B nonempty) or
        # A = {x} for some x in B
        p = lattice_fixture("PX3")
        rows = analyze(p).wwb_below
        for b in range(p.n):
            for a in range(p.n):
                expected = (a == 0 and b != 0) or (a.bit_count() == 1 and a & b == a)
                assert bool(rows[b] >> a & 1) == expected

    def test_dual_swaps_primes(self):
        c3 = lattice_fixture("CHAIN3")
        d = dualize(c3)
        assert dualize(d) is c3
        assert d.bottom == c3.top and d.top == c3.bottom
        assert analyze(d).join_primes == analyze(c3).meet_primes
        assert analyze(d).meet_primes == analyze(c3).join_primes

    def test_dual_of_powerset_keeps_mask_ops(self):
        b2 = lattice_fixture("BOOL2")
        d = dualize(b2)
        assert d.meet(1, 2) == 3 and d.join(1, 2) == 0
        assert analyze(d).complemented == d.full_mask


class TestAnalysisOracles:
    """``analyze`` against the literal definitions on every fixture and its
    dual, every carrier of ``small_coframes(8)`` and random closure-system
    lattices, distributive or not."""

    corpus = oracle_corpus()

    def test_corpus_holds_non_distributive_lattices(self):
        non_distributive = [lat for lat in self.corpus if not distributive_by_triples(lat)]
        assert len(non_distributive) >= 10
        assert any(lat.name == "CLOSURE" for lat in non_distributive)

    def test_distributive(self):
        for lat in self.corpus:
            assert analyze(lat).distributive == distributive_by_triples(lat), lat

    def test_join_primes(self):
        for lat in self.corpus:
            assert analyze(lat).join_primes == join_primes_by_scan(lat), lat

    def test_meet_primes(self):
        for lat in self.corpus:
            assert analyze(lat).meet_primes == meet_primes_by_scan(lat), lat

    def test_wwb_below(self):
        for lat in self.corpus:
            assert analyze(lat).wwb_below == wwb_brute_force(lat), lat

    def test_nonzero_meet_rows(self):
        # built from the atoms' up-sets; the definition takes every meet
        for lat in self.corpus:
            expected = tuple(
                sum(1 << b for b in range(lat.n) if lat.meet(a, b) != lat.bottom)
                for a in range(lat.n)
            )
            assert lat.nonzero_meet_rows == expected, lat

    def test_covers_and_splits(self):
        for lat in self.corpus:
            for j in range(lat.n):
                below = lat.down[j] ^ 1 << j
                maximal = tuple(
                    i for i in range(lat.n)
                    if below >> i & 1 and not any(
                        below >> k & 1 and k != i and lat.leq(i, k) for k in range(lat.n)
                    )
                )
                assert lat.covers[j] == maximal, (lat, j)
            rank = {x: r for r, x in enumerate(lat.rank_order())}
            split_at = [x for x, _, _ in lat.splits]
            assert split_at == sorted(split_at, key=rank.__getitem__)
            assert set(split_at) == {x for x in range(lat.n) if len(lat.covers[x]) > 1}
            for x, a, b in lat.splits:
                assert (a, b) == lat.covers[x][:2] and lat.join(a, b) == x


# ---------------------------------------------------------------------------
# oracle: the lower covers by scanning every strict down-set


def covers_by_scan(lat):
    """The lower covers as first computed: every member of each strict
    down-set tested for having no other member above it, O(Σ|↓x|) up-row
    tests (3^k on P(k))."""
    up = lat.up
    out = []
    for j, below in enumerate(lat.down):
        strictly_below = below ^ 1 << j
        out.append(tuple(i for i in bits(strictly_below) if up[i] & strictly_below == 1 << i))
    return tuple(out)


def shuffled_carriers(lat, rng, count):
    """``count`` rebuilds of ``lat`` from its cover pairs with the element
    list shuffled, so the indices no longer follow a linear extension."""
    pairs = cover_pairs(lat)
    for _ in range(count):
        labels = list(lat.elements)
        rng.shuffle(labels)
        yield build_lattice(lat.name + "~", labels, pairs)


def first_pick_climbs(lat):
    """Whether the highest index of some strict down-set is not maximal in
    it, so that ``covers`` climbs from its first pick."""
    for j, below in enumerate(lat.down):
        left = below ^ 1 << j
        s = left.bit_length() - 1
        if left and lat.up[s] & left != 1 << s:
            return True
    return False


class TestCoversAgainstTheScan:
    """The maximal-pick ``covers`` equals the down-set scan on mask carriers,
    their duals and table carriers, indexed along, against and across a
    linear extension."""

    def test_small_coframes_and_their_duals(self):
        carriers = list(small_coframes(14))
        assert len(carriers) == 1105
        for lat in carriers:
            for side in (lat, dualize(lat)):
                assert side.covers == covers_by_scan(side), side

    def test_fixtures_and_their_duals(self):
        names = lattice_fixture_names()
        assert {"M3", "N5"} <= set(names)
        for name in names:
            lat = lattice_fixture(name)
            for side in (lat, dualize(lat)):
                assert side.covers == covers_by_scan(side), side

    def test_powersets_and_their_duals(self):
        for k in range(11):
            lat = powerset_lattice(tuple("abcdefghij"[:k]))
            for side in (lat, dualize(lat)):
                assert side.covers == covers_by_scan(side), side
                assert sum(map(len, side.covers)) == k << k >> 1

    def test_shuffled_element_lists(self):
        # the climb only runs when a member lies below one of lower index
        rng = random.Random(20261019)
        sources = list(small_coframes(12)) + [powerset_lattice(tuple("abcdef"))]
        checked = climbed = 0
        for lat in sources:
            expected = set(cover_pairs(lat))
            for shuffled in shuffled_carriers(lat, rng, 5):
                assert shuffled.covers == covers_by_scan(shuffled), shuffled
                assert set(cover_pairs(shuffled)) == expected, shuffled
                checked += 1
                climbed += first_pick_climbs(shuffled)
        assert checked == 1715 and climbed > 1000, climbed

    def test_mask_rows_are_the_inclusion_rows(self):
        for k in range(9):
            lat = powerset_lattice(tuple("abcdefgh"[:k]))
            assert lat.up == tuple(
                sum(1 << j for j in range(lat.n) if i & j == i) for i in range(lat.n)
            )
            assert lat.down == tuple(
                sum(1 << j for j in range(lat.n) if i & j == j) for i in range(lat.n)
            )


def frame_sublocale_lattices():
    """The sublocale lattices of the distributive fixtures with at most
    seven primes."""
    return [
        sublocale_lattice(lat).lattice
        for lat in dict.fromkeys(map(lattice_fixture, lattice_fixture_names()))
        if analyze(lat).distributive and analyze(lat).meet_primes.bit_count() <= 7
    ]


class TestOperationsAgreeWithTheRows:
    """Each carrier's ``meet`` and ``join``, fixed when it is built, against
    its order rows: ``↓(x ∧ y) = ↓x ∩ ↓y`` and ``↑(x ∨ y) = ↑x ∩ ↑y``."""

    @staticmethod
    def carriers():
        powersets = [powerset_lattice(tuple("abcdef"[:k])) for k in range(7)]
        fixtures = list(dict.fromkeys(map(lattice_fixture, lattice_fixture_names())))
        coframes = list(small_coframes(10))
        rng = random.Random(20261020)
        shuffled = [
            s for lat in coframes[::7] + fixtures for s in shuffled_carriers(lat, rng, 2)
        ]
        sides = [
            side
            for lat in powersets + fixtures + coframes + frame_sublocale_lattices()
            for side in (lat, lat.dual)
        ]
        return sides + shuffled

    def test_operations_match_the_rows(self):
        carriers = self.carriers()
        assert len(carriers) == 332
        assert {"M3", "N5", "P(a,b,c,d,e,f)^op"} <= {lat.name for lat in carriers}
        for lat in carriers:
            up, down, every = lat.up, lat.down, range(lat.n)
            for i in every:
                for j in every:
                    assert down[lat.meet(i, j)] == down[i] & down[j], (lat, i, j)
                    assert up[lat.join(i, j)] == up[i] & up[j], (lat, i, j)

    def test_meet_mask_is_the_meet_of_the_members(self):
        small = [lat for lat in self.carriers() if lat.n <= 8]
        assert len(small) == 152
        for lat in small:
            for s in range(1 << lat.n):
                assert lat.meet_mask(s) == lat.meet_of(bits(s)), (lat, s)

    def test_boolean_pseudocomplement_and_complement_are_their_definitions(self):
        for k in range(6):
            lat = powerset_lattice(tuple("abcde"[:k]))
            for side in (lat, lat.dual):
                complement = analyze(side).complement
                for x in range(side.n):
                    disjoint = sum(
                        1 << m for m in range(side.n) if side.meet(x, m) == side.bottom
                    )
                    largest = [m for m in bits(disjoint) if side.down[m] & disjoint == disjoint]
                    assert largest == [pseudocomplement(side, x)], (side, x)
                    assert side.join(x, complement[x]) == side.top, (side, x)
                    assert disjoint >> complement[x] & 1, (side, x)


class TestBooleanClosedForm:
    """The closed-form report of a Boolean algebra indexed by subset mask
    against the scan that every table carrier gets."""

    @staticmethod
    def carriers():
        powersets = [powerset_lattice(tuple("abcdefgh"[:k])) for k in range(9)]
        return [side for lat in powersets + frame_sublocale_lattices() for side in (lat, lat.dual)]

    def test_closed_form_equals_the_scan(self):
        carriers = self.carriers()
        assert len(carriers) == 38
        for lat in carriers:
            assert mask_boolean(lat), lat
            assert _analysis(lat) == _scan_analysis(lat), lat

    def test_closed_form_folds_nothing(self, monkeypatch):
        import coframes.lattice

        def refuse(*args):
            raise AssertionError("folded")

        p3 = powerset_lattice(tuple("uvw"))
        subloc = sublocale_lattice(dualize(lattice_fixture("BOOL3"))).lattice
        table = lattice_fixture("CHAIN3")
        monkeypatch.setattr(coframes.lattice, "_fold", refuse)
        for lat in (p3, p3.dual, subloc):
            assert _analysis(lat).complemented == lat.full_mask, lat
        assert not mask_boolean(table)
        with pytest.raises(AssertionError, match="folded"):
            _analysis(table)


def table_report_corpus():
    """Every table carrier whose report the join-irreducibles give: every
    carrier of ``small_coframes(14)``, every lattice fixture, the sublattices
    ``↓x``, ``↑x`` and the complemented part of the fixtures and of the
    carriers of ``small_coframes(7)``, the covers-form rebuild of each of
    these (as ``lattice_to_doc`` writes it, and with its element list
    reversed, so the indices run against a linear extension), and the dual
    of each."""
    fixtures = list(dict.fromkeys(map(lattice_fixture, lattice_fixture_names())))
    subs = []
    for lat in fixtures + list(small_coframes(7)):
        rows = set(lat.down) | set(lat.up)
        if (scanned := _scan_analysis(lat)).distributive:
            rows.add(scanned.complemented)
        subs += [sublattice(lat, bits(row))[0] for row in rows]
    carriers = list(small_coframes(14)) + fixtures + subs
    rebuilds = [
        build_lattice(lat.name + "~", elements, cover_pairs(lat))
        for lat in carriers
        for elements in (lat.elements, lat.elements[::-1])
    ]
    return [
        side for lat in carriers + rebuilds for side in (lat, lat.dual) if not mask_boolean(side)
    ]


class TestJoinIrreducibleClosedForm:
    """The report of every table carrier read off its join-irreducibles,
    against the scan that only carriers that are not distributive keep."""

    corpus = table_report_corpus()

    def test_closed_form_equals_the_scan(self):
        assert len(self.corpus) > 8000
        for lat in self.corpus:
            assert _analysis(lat) == _scan_analysis(lat), lat

    def test_only_carriers_that_are_not_distributive_reach_the_scan(self, monkeypatch):
        import coframes.lattice

        reached = []

        def refuse(lat):
            reached.append(lat)
            raise AssertionError("scanned")

        expected = [lat for lat in self.corpus if not _scan_analysis(lat).distributive]
        monkeypatch.setattr(coframes.lattice, "_scan_analysis", refuse)
        for lat in self.corpus:
            try:
                _analysis(lat)
            except AssertionError:
                pass
        assert reached == expected
        names = {lat.name for lat in reached}
        assert {"M3", "N5", "M3^op", "N5^op", "M3~", "N5~"} <= names
        assert not any(lat.name.startswith(("D", "CHAIN", "BOOL", "V5")) for lat in reached)

    def test_chain_report_takes_linear_lattice_operations(self):
        labels = [f"c{i}" for i in range(1000)]
        chain = build_lattice("CHAIN1000", labels, list(zip(labels, labels[1:])))
        calls = []

        def counted(op):
            def call(i, j):
                calls.append(op)
                return op(i, j)

            return call

        probe = FiniteLattice(
            chain.name, chain.elements, chain.up, chain.down, chain.bottom, chain.top,
            counted(chain.meet), counted(chain.join),
        )
        for side in (probe, probe.dual):
            calls.clear()
            report = analyze(side)
            assert len(calls) <= 2 * side.n, (side, len(calls))
            assert report.distributive and report.prime_continuous
            assert report.join_primes == side.full_mask ^ 1 << side.bottom
            assert report.complemented == 1 << side.bottom | 1 << side.top


class TestDerivedDataLifetime:
    def test_derived_data_is_built_once_and_kept(self):
        lat = downset_lattice(poset_from_covers(("a", "b", "c"), [("a", "c")]))
        assert analyze(lat) is analyze(lat) is lat.report
        assert lat.covers is lat.covers and lat.splits is lat.splits
        assert dualize(lat).dual is lat

    def test_carrier_is_freed_with_its_derived_data(self):
        # nothing module-global may keep a carrier (or its dual) alive
        lat = downset_lattice(poset_from_covers(("a", "b", "c"), [("a", "c")]))
        analyze(lat)
        lat.nonzero_meet_rows
        op = dualize(lat)
        analyze(op)
        cs = ConvergenceStructure(lat, (lat.top,) + (lat.bottom,) * (lat.n - 1))
        classify(cs)
        s1(cs, "pretop")
        refs = [weakref.ref(lat), weakref.ref(op), weakref.ref(cs)]
        del lat, op, cs
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]


class TestLargeNonDistributive:
    def test_chain130_under_m3_is_not_distributive(self):
        # 134 elements: beyond any full triple scan, still exact
        lat = chain_under_m3(130)
        assert lat.n == 134
        rep = analyze(lat)
        assert not rep.distributive
        assert rep.join_primes.bit_count() == 129  # the chain above bottom
        with pytest.raises(NotDistributive):
            ConvergenceStructure(lat, (lat.top,) * lat.n)

    def test_chain16_under_m3_matches_the_oracles(self):
        # 20 elements: way-way-below is exact on non-distributive carriers
        lat = chain_under_m3(16)
        rep = analyze(lat)
        assert not rep.distributive and not distributive_by_triples(lat)
        assert rep.join_primes == join_primes_by_scan(lat)
        assert rep.meet_primes == meet_primes_by_scan(lat)


class TestPseudocomplement:
    def test_chain3(self):
        c3 = lattice_fixture("CHAIN3")
        lo, m, hi = c3.index("0"), c3.index("m"), c3.index("1")
        assert pseudocomplement(c3, lo) == hi
        assert pseudocomplement(c3, m) == lo
        assert pseudocomplement(c3, hi) == lo

    def test_boolean_is_complement(self):
        b3 = lattice_fixture("PX3")
        rep = analyze(b3)
        for x in range(b3.n):
            assert pseudocomplement(b3, x) == rep.complement[x]

    def test_v5(self):
        v5 = lattice_fixture("V5")
        assert v5.label(pseudocomplement(v5, v5.index("{a}"))) == "{b}"
        assert v5.label(pseudocomplement(v5, v5.index("{a,b}"))) == "{}"

    def test_m3_rejected(self):
        m3 = lattice_fixture("M3")
        with pytest.raises(NotDistributive):
            pseudocomplement(m3, m3.index("a"))

    def test_greatest_property(self):
        # oracle: the defining universal property, scanned directly
        for name in ("CHAIN5", "V5", "PX3"):
            lat = lattice_fixture(name)
            for x in range(lat.n):
                star = pseudocomplement(lat, x)
                for m in range(lat.n):
                    assert (lat.meet(x, m) == lat.bottom) == lat.leq(m, star)


class TestMorphisms:
    def test_identity_and_inclusion(self):
        c2, c3 = lattice_fixture("CHAIN2"), lattice_fixture("CHAIN3")
        inc = LatticeMorphism(c2, c3, (c3.index("0"), c3.index("1")))
        assert check_morphism(inc)

    def test_violation_witness(self):
        b2, c2 = lattice_fixture("BOOL2"), lattice_fixture("CHAIN2")
        with pytest.raises(NotAMorphism, match="meet"):
            LatticeMorphism(b2, c2, (0, 1, 1, 1))
        # the same witness from the raw check and from the oracle
        assert "meet" in _table_violation(b2, c2, (0, 1, 1, 1), "coframe")
        forged = _trusted(
            LatticeMorphism, source=b2, target=c2, values=(0, 1, 1, 1), kind="coframe"
        )
        assert "meet" in morphism_violation(forged)

    def test_bounds_required(self):
        c2, c3 = lattice_fixture("CHAIN2"), lattice_fixture("CHAIN3")
        with pytest.raises(NotAMorphism, match="bottom"):
            LatticeMorphism(c2, c3, (c3.index("m"), c3.index("1")))

    def test_constructor_names_the_broken_join_and_table(self):
        b2, c3 = lattice_fixture("BOOL2"), lattice_fixture("CHAIN3")
        # keeps the bounds and the meets of the square, but its atoms' images
        # join below the image of their join
        values = [c3.index("0")] * b2.n
        values[b2.top], values[b2.index("{0}")] = c3.index("1"), c3.index("m")
        with pytest.raises(NotAMorphism, match="join"):
            LatticeMorphism(b2, c3, tuple(values))
        with pytest.raises(NotAMorphism, match="table"):
            LatticeMorphism(b2, c3, (0, 1))
        with pytest.raises(NotAMorphism, match="table"):
            LatticeMorphism(b2, c3, (0, 1, 2, 3))

    def test_unknown_kind_is_refused(self):
        c2 = lattice_fixture("CHAIN2")
        with pytest.raises(NotAMorphism, match="unknown kind 'frame'"):
            LatticeMorphism(c2, c2, (0, 1), kind="frame")

    def test_monotone_kind_is_weaker(self):
        c2, c3 = lattice_fixture("CHAIN2"), lattice_fixture("CHAIN3")
        shifted = LatticeMorphism(c2, c3, (c3.index("m"), c3.index("1")), kind="monotone")
        assert check_morphism(shifted)

    def test_bound_and_binary_laws_imply_arbitrary_infima(self):
        # oracle: the subset scan, on every map between fixtures of at most
        # five elements that passes the bound and binary laws
        small = [
            lattice_fixture(name)
            for name in lattice_fixture_names()
            if lattice_fixture(name).n <= 5
        ]
        passing = 0
        for src in small:
            inner = [x for x in range(src.n) if x not in (src.bottom, src.top)]
            for tgt in small:
                for combo in itertools.product(range(tgt.n), repeat=len(inner)):
                    vals = [tgt.bottom] * src.n
                    vals[src.top] = tgt.top
                    for x, v in zip(inner, combo):
                        vals[x] = v
                    if _table_violation(src, tgt, vals, "coframe") is None:
                        passing += 1
                        phi = LatticeMorphism(src, tgt, tuple(vals))
                        assert infimum_violation_by_subsets(phi) is None, phi
        assert passing > 400
        b2, c2 = lattice_fixture("BOOL2"), lattice_fixture("CHAIN2")
        bad = _trusted(
            LatticeMorphism, source=b2, target=c2, values=(0, 1, 1, 1), kind="coframe"
        )
        assert infimum_violation_by_subsets(bad) is not None

    def test_left_adjoint_of_inclusion(self):
        c2, c3 = lattice_fixture("CHAIN2"), lattice_fixture("CHAIN3")
        inc = LatticeMorphism(c2, c3, (c3.index("0"), c3.index("1")))
        adj = left_adjoint(inc)
        assert [c2.label(v) for v in adj.values] == ["0", "1", "1"]

    def test_left_adjoint_requires_morphism(self):
        b2, c2 = lattice_fixture("BOOL2"), lattice_fixture("CHAIN2")
        with pytest.raises(NotAMorphism):
            left_adjoint(LatticeMorphism(b2, c2, (0, 1, 1, 1)))
        # a map declared only monotone need not preserve the meets it reads
        monotone = LatticeMorphism(b2, c2, (0, 0, 0, 1), kind="monotone")
        with pytest.raises(NotAMorphism):
            left_adjoint(monotone)

    def test_adjunction_holds_for_every_coframe_morphism(self):
        # the adjunction is not re-checked when the adjoint is built
        carriers = [lattice_fixture(n) for n in ("CHAIN2", "CHAIN3", "BOOL2", "V5", "CHAIN4")]
        checked = 0
        for src in carriers:
            for tgt in carriers:
                for values in itertools.product(range(tgt.n), repeat=src.n):
                    if _table_violation(src, tgt, values, "coframe") is not None:
                        continue
                    adj = left_adjoint(LatticeMorphism(src, tgt, values))
                    for m in range(tgt.n):
                        for l in range(src.n):
                            assert src.leq(adj.values[m], l) == tgt.leq(m, values[l])
                    checked += 1
        assert checked > 20

    def test_adjunction_on_powerset_image(self):
        # preimage map of f: {x,y} -> {x} between powersets, and its adjoint
        px = powerset_lattice(("x",))
        pxy = powerset_lattice(("x", "y"))
        # preimage of {} is {}, of {x} is {x,y}
        pre = LatticeMorphism(px, pxy, (0, 3))
        adj = left_adjoint(pre)
        for m in range(pxy.n):
            for l in range(px.n):
                assert px.leq(adj.values[m], l) == pxy.leq(m, pre.values[l])


class TestSublattice:
    def test_closed_subset(self):
        b2 = lattice_fixture("BOOL2")
        sub, mapping = sublattice(b2, [0, 1, 3])
        assert sub.n == 3
        assert [b2.label(i) for i in mapping] == ["{}", "{0}", "{0,1}"]
        assert analyze(sub).distributive

    def test_not_closed_rejected_with_witness(self):
        b2 = lattice_fixture("BOOL2")
        with pytest.raises(NotASublattice) as exc:
            sublattice(b2, [0, 1, 2])
        assert "join" in str(exc.value)


class TestRandomLattices:
    @given(posets())
    @settings(max_examples=60, deadline=None)
    def test_downset_lattices_are_distributive_and_spatial(self, poset):
        lat = downset_lattice(poset)
        rep = analyze(lat)
        assert rep.distributive and rep.spatial and rep.prime_continuous
        # Birkhoff: one join-prime per poset element
        assert analyze(lat).join_primes.bit_count() == poset.n

    @given(posets())
    @settings(max_examples=40, deadline=None)
    def test_absorption_and_idempotence(self, poset):
        lat = downset_lattice(poset)
        for x in range(lat.n):
            assert lat.meet(x, x) == x and lat.join(x, x) == x
            for y in range(lat.n):
                assert lat.meet(x, lat.join(x, y)) == x
                assert lat.join(x, lat.meet(x, y)) == x

    @given(posets())
    @settings(max_examples=30, deadline=None)
    def test_dualize_is_an_involution(self, poset):
        lat = downset_lattice(poset)
        assert dualize(dualize(lat)) is lat

    @given(posets())
    @settings(max_examples=60, deadline=None)
    def test_downsets_equal_the_mask_scan(self, poset):
        # the grown down-sets against a scan of every subset of the points
        scan = [
            m
            for m in range(1 << poset.n)
            if all(poset.below[i] & m == poset.below[i] for i in bits(m))
        ]
        assert list(poset.downsets) == sorted(scan, key=lambda m: (m.bit_count(), m))
        assert downset_lattice(poset).n == len(scan)

    def test_random_carriers_equal_build_then_reject(self):
        # counting down-sets first, and sharing one pool of carriers across
        # calls with different bounds, keep the draws and the carriers of
        # building every drawn poset and rejecting the large carriers
        a, b = random.Random(3), random.Random(3)
        pool: dict = {}
        pooled = []
        for i in range(300):
            max_elements, max_poset = (6, 4) if i % 3 else (8, 5)
            for carriers in (None, pool):
                lat = random_downset_lattice(a, max_elements, max_poset, carriers)
                if carriers is pool:
                    pooled.append(lat)
                while True:
                    ref = downset_lattice(random_poset(b, b.randint(2, max_poset)))
                    if ref.n <= max_elements:
                        break
                assert (lat.name, lat.elements, lat.up, lat.down) == (
                    ref.name, ref.elements, ref.up, ref.down
                )
                assert a.getstate() == b.getstate()
        # a repeated poset is one carrier (the labels name the down-sets)
        distinct = {lat.elements for lat in pooled}
        assert len({id(lat) for lat in pooled}) == len(distinct) < len(pooled)

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((2, 4), "max_elements is 2; every poset on 2 or more points has at least 3"),
            ((8, 1), "max_poset is 1; posets are drawn on at least 2 points"),
        ],
    )
    def test_random_carriers_refuse_bounds_no_draw_meets(self, bounds, message):
        # no poset on 2 or more points has fewer than 3 down-sets, so these
        # bounds would draw for ever (or fail inside ``randint``)
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(BudgetExceeded, match=message):
            random_downset_lattice(rng, *bounds)
        assert rng.getstate() == state
        assert random_downset_lattice(rng, 3, 2).n == 3

    def test_random_poset_generator_is_seeded(self):
        a = random_poset(random.Random(7), 4)
        b = random_poset(random.Random(7), 4)
        assert a.below == b.below

    def test_random_poset_rows_are_pinned(self):
        # the documents benchmark draws its carriers with random_poset
        rng = random.Random(7)
        assert [random_poset(rng, k).below for k in (2, 3, 4, 5)] == [
            (1, 3), (1, 3, 7), (1, 2, 5, 11), (1, 3, 7, 11, 27)
        ]
        rng = random.Random(7)
        assert [random_poset(rng, k, 0.7).below for k in (2, 3, 4, 5)] == [
            (1, 3), (1, 3, 7), (1, 3, 7, 15), (1, 3, 7, 11, 31)
        ]
        assert rng.random() == 0.9762551055929201
