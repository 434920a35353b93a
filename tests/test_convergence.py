"""Convergence structures: classification, completions, continuity, lifts."""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coframes import (
    AxiomViolation,
    ConvergenceStructure,
    EngineError,
    LatticeMismatch,
    NotAMorphism,
    NotDistributive,
    UnknownKind,
    analyze,
    check_continuity,
    classify,
    final_lift,
    lim,
    points,
    s1,
    s_infinity,
)
from coframes.convergence import S1_KINDS
from coframes.filters import Filter
from coframes.fixtures import (
    chaotic_structure,
    convergence_fixture,
    convergence_fixture_names,
    discrete_structure,
    enumerate_antitone_tables,
    lattice_fixture,
    lattice_fixture_names,
    random_antitone_table,
    random_downset_lattice,
)
from coframes.lattice import LatticeMorphism, bits, identity_morphism, powerset_lattice
from coframes.search import small_coframes
from oracles import random_convergence_structure


def table(cs, mapping):
    lat = cs if not isinstance(cs, ConvergenceStructure) else cs.lattice
    return tuple(lat.index(mapping[lat.label(g)]) for g in range(lat.n))


def all_structures(lat):
    return [ConvergenceStructure(lat, t) for t in enumerate_antitone_tables(lat)]


def family_scan_pretopological(cs):
    """The definition: every family of filters, the empty one included,
    intersects to a filter converging to the infimum of their limits.  A
    family's intersection is generated by the join of its generators."""
    lat, tab = cs.lattice, cs.limtab
    size = 1 << lat.n
    join_gen = [lat.bottom] * size
    meet_lim = [lat.top] * size
    for s in range(1, size):
        low = s & -s
        g = low.bit_length() - 1
        rest = s ^ low
        join_gen[s] = lat.join(join_gen[rest], g)
        meet_lim[s] = lat.meet(meet_lim[rest], tab[g])
    return all(tab[join_gen[s]] == meet_lim[s] for s in range(size))


def family_step_by_subsets(cs):
    """The definition of the family step: at each ``f``, the join over every
    family of generators whose join dominates ``f`` (the empty family
    included) of the infimum of their limits.  Scans all ``2^n`` families."""
    lat, tab = cs.lattice, cs.limtab
    size = 1 << lat.n
    contrib = [lat.bottom] * lat.n
    join_gen = [lat.bottom] * size
    meet_lim = [lat.top] * size
    contrib[lat.bottom] = lat.top  # the empty family
    for s in range(1, size):
        low = s & -s
        g = low.bit_length() - 1
        rest = s ^ low
        join_gen[s] = lat.join(join_gen[rest], g)
        meet_lim[s] = lat.meet(meet_lim[rest], tab[g])
        j = join_gen[s]
        contrib[j] = lat.join(contrib[j], meet_lim[s])
    return tuple(lat.join_of(contrib[j] for j in bits(lat.up[f])) for f in range(lat.n))


def limit_by_pairs(cs):
    """The definition of a limit structure: every binary intersection of
    filters converges to the infimum of their limits."""
    lat, tab = cs.lattice, cs.limtab
    return all(
        tab[lat.join(g, h)] == lat.meet(tab[g], tab[h])
        for g in range(lat.n)
        for h in range(g, lat.n)
    )


def antitone_by_pairs(lat, tab):
    """Every comparable pair, not only the cover pairs."""
    return all(lat.leq(tab[h], tab[g]) for g in range(lat.n) for h in bits(lat.up[g]))


def enumerate_tables_recursively(lat, pretopological=False):
    """The table enumeration as first written, the oracle for the order of
    ``enumerate_antitone_tables``: recursion along the rank order, each value
    over the down-set of the meet at the lower covers, or that meet itself
    at a fixed position (``pretopological``: every element that does not
    have exactly one lower cover)."""
    order = lat.rank_order()
    table = [0] * lat.n

    def rec(pos):
        if pos == len(order):
            yield tuple(table)
            return
        h = order[pos]
        bound = lat.meet_of(table[g] for g in lat.covers[h])
        if pretopological and len(lat.covers[h]) != 1:
            table[h] = bound
            yield from rec(pos + 1)
            return
        for v in bits(lat.down[bound]):
            table[h] = v
            yield from rec(pos + 1)

    yield from rec(0)


def random_table_by_choice(rng, lat, pretopological=False):
    """The draw as first written, the oracle for ``random_antitone_table``:
    along the rank order, ``rng.choice`` over the members of the down-set of
    the meet at the lower covers, listed in increasing index order, or that
    meet itself at a fixed position."""
    table = [0] * lat.n
    for h in lat.rank_order():
        bound = lat.meet_of(table[g] for g in lat.covers[h])
        if pretopological and len(lat.covers[h]) != 1:
            table[h] = bound
        else:
            table[h] = rng.choice(tuple(bits(lat.down[bound])))
    return tuple(table)


def s_infinity_by_iteration(cs, kind):
    """The least fixed point above the input by Kleene iteration of one-step
    operators written from the definitions: top at the improper filter
    (every kind but ``limit``), then the pair scan ``s1(..., "limit")``
    (every kind but ``strict``).  Each step is inflationary and monotone,
    and its fixed points are the members of the class, so the chain climbs
    to the least of them above the input; every entry climbs along a chain
    in the carrier, so it stabilizes within ``n**2 + 2`` steps."""
    lat = cs.lattice
    current = cs.limtab
    for _ in range(lat.n * lat.n + 2):
        step = list(current)
        if kind != "limit":
            step[lat.bottom] = lat.top
        if kind != "strict":
            step = s1(ConvergenceStructure(lat, step), "limit").limtab
        step = tuple(step)
        if step == current:
            return current
        current = step
    raise AssertionError(f"completion {kind!r} did not stabilize")


@functools.lru_cache(maxsize=None)
def oracle_corpus():
    """Every structure on the carriers of ``small_coframes(6)``, every
    fixture, and seeded structures (arbitrary and limit) on larger carriers."""
    corpus = [
        ConvergenceStructure(lat, t)
        for lat in small_coframes(6)
        for t in enumerate_antitone_tables(lat)
    ]
    corpus += [convergence_fixture(name) for name in convergence_fixture_names()]
    rng = random.Random(404)
    for _ in range(60):
        lat = random_downset_lattice(rng, max_elements=14, max_poset=5)
        cs = random_convergence_structure(rng, lat)
        corpus += [cs, s_infinity(cs, "limit")]
    return tuple(corpus)


def small_carriers(max_elements):
    """The distributive carriers with at most ``max_elements`` elements."""
    fixtures = [lattice_fixture(name) for name in lattice_fixture_names()]
    return list(small_coframes(max_elements)) + [
        lat for lat in fixtures if lat.n <= max_elements and analyze(lat).distributive
    ]


class TestValidation:
    def test_cover_pair_check_equals_all_pairs_scan(self):
        # every self-map of every distributive carrier with at most 5 elements
        for lat in small_carriers(5):
            for tab in itertools.product(range(lat.n), repeat=lat.n):
                try:
                    ConvergenceStructure(lat, tab)
                    accepted = True
                except AxiomViolation as err:
                    assert err.axiom == "convergence.antitone"
                    accepted = False
                assert accepted == antitone_by_pairs(lat, tab), (lat, tab)

    def test_non_antitone_rejected(self):
        lat = lattice_fixture("CHAIN3")
        with pytest.raises(AxiomViolation) as err:
            ConvergenceStructure(lat, table(lat, {"0": "1", "m": "m", "1": "1"}))
        assert err.value.axiom == "convergence.antitone"

    def test_non_distributive_carrier_rejected(self):
        lat = lattice_fixture("M3")
        with pytest.raises(NotDistributive):
            ConvergenceStructure(lat, (lat.top,) * lat.n)

    def test_table_length_checked(self):
        lat = lattice_fixture("CHAIN2")
        with pytest.raises(AxiomViolation):
            ConvergenceStructure(lat, (0,))

    def test_lim_requires_same_carrier(self):
        cs = convergence_fixture("SIERP_LIM")
        other = lattice_fixture("CHAIN2")
        with pytest.raises(LatticeMismatch):
            lim(cs, Filter(other, other.top))

    def test_lim_reads_the_table(self):
        cs = convergence_fixture("SIERP_LIM")
        lat = cs.lattice
        assert lim(cs, Filter(lat, lat.index("{1}"))) == lat.index("{0,1}")
        assert lim(cs, Filter(lat, lat.index("{0,1}"))) == lat.index("{0}")


class TestClassify:
    def test_sierpinski_all_flags(self):
        flags = classify(convergence_fixture("SIERP_LIM")).flags()
        assert all(flags.values()), flags

    def test_discrete_flags(self):
        # nothing converges: meets are preserved but the improper filter
        # misses top, so the structure is not strict (hence, with the empty
        # family included, not pretopological), not centered, not topological
        got = classify(discrete_structure(lattice_fixture("CHAIN2")))
        assert got.classical and got.limit
        assert not got.strict
        assert not got.pretopological
        assert not got.centered
        assert not got.topological

    def test_chaotic_flags(self):
        flags = classify(chaotic_structure(lattice_fixture("BOOL2"))).flags()
        assert all(flags.values()), flags

    def test_px3_pretopology_flags(self):
        got = classify(convergence_fixture("PX3_PRETOP"))
        assert got.classical and got.limit and got.strict
        assert got.pretopological and got.centered
        assert not got.topological

    def test_chain3_nonclassical_witness(self):
        # filters at m and at top contain the same complemented elements
        # (only top) yet converge differently
        got = classify(convergence_fixture("CHAIN3_NONCLASSICAL"))
        assert not got.classical
        assert got.limit and got.strict and got.pretopological and got.centered
        assert not got.topological

    def test_pretopological_equals_strict_limit_exhaustive(self):
        # the flag is computed as strict-and-limit; the family scan is the
        # definition and must agree on every small structure and fixture
        for cs in oracle_corpus():
            assert classify(cs).pretopological == family_scan_pretopological(cs), cs

    def test_pretopological_exact_on_large_carriers(self):
        # P(5), 32 elements: filters at sets of at most k points converge to
        # top, all others to bottom.  Strict, but two singletons join to a
        # pair, so binary meets fail; only families of singletons witness
        # it, which a random sample of the 2^32 families almost never draws.
        lat = powerset_lattice(tuple("abcde"))
        for k in (1, 2, 3):
            tab = tuple(
                lat.top if bin(s).count("1") <= k else lat.bottom
                for s in range(lat.n)
            )
            got = classify(ConvergenceStructure(lat, tab))
            assert got.strict and not got.limit
            assert got.pretopological is False

    def test_limit_matches_pair_definition(self):
        # the flag is read at the splits only; the definition takes all pairs
        corpus = oracle_corpus()
        assert sum(limit_by_pairs(cs) for cs in corpus) > 1000
        assert sum(not limit_by_pairs(cs) for cs in corpus) > 1000
        for cs in corpus:
            assert classify(cs).limit == limit_by_pairs(cs), cs

    def test_classical_matches_definition_scan(self):
        # independent oracle: compare limits across all filter pairs sharing
        # their complemented member sets
        lat = lattice_fixture("V5")
        comp = analyze(lat).complemented
        for cs in all_structures(lat):
            expected = all(
                cs.limtab[g] == cs.limtab[h]
                for g in range(lat.n)
                for h in range(lat.n)
                if lat.up[g] & comp == lat.up[h] & comp
            )
            assert classify(cs).classical == expected

class TestPoints:
    def test_sierpinski_has_both_points(self):
        cs = convergence_fixture("SIERP_LIM")
        lat = cs.lattice
        assert points(cs) == (lat.index("{0}"), lat.index("{1}"))

    def test_discrete_has_no_points(self):
        for name in ("CHAIN3", "BOOL2", "PX3"):
            assert points(discrete_structure(lattice_fixture(name))) == ()

    def test_chaotic_has_all_join_primes(self):
        cs = chaotic_structure(lattice_fixture("BOOL2"))
        assert points(cs) == tuple(bits(analyze(cs.lattice).join_primes))


class TestCompletionStep:
    def test_strict_bumps_only_the_improper_filter(self):
        cs = discrete_structure(lattice_fixture("CHAIN2"))
        out = s1(cs, "strict")
        lat = cs.lattice
        assert out.limtab == (lat.top, lat.bottom)

    def test_limit_step_matches_pair_oracle(self):
        # oracle: for each filter, scan every generator pair whose join
        # refines it and join the limit meets
        lat = lattice_fixture("V5")
        rng = random.Random(7)
        for _ in range(40):
            cs = random_convergence_structure(rng, lat)
            out = s1(cs, "limit")
            for f in range(lat.n):
                expected = lat.join_of(
                    lat.meet(cs.limtab[g], cs.limtab[h])
                    for g in range(lat.n)
                    for h in range(lat.n)
                    if lat.leq(f, lat.join(g, h))
                )
                assert out.limtab[f] == expected

    def test_family_step_matches_subset_oracle(self):
        # oracle: scan every family of generators (including the empty one)
        lat = lattice_fixture("CHAIN3")
        for cs in all_structures(lat):
            out = s1(cs, "pretop")
            for f in range(lat.n):
                best = []
                for s in range(1 << lat.n):
                    members = list(bits(s))
                    if lat.leq(f, lat.join_of(members)):
                        best.append(lat.meet_of(cs.limtab[g] for g in members))
                assert out.limtab[f] == lat.join_of(best)

    def test_family_step_matches_family_scan(self):
        for cs in oracle_corpus():
            assert s1(cs, "pretop").limtab == family_step_by_subsets(cs), cs

    def test_family_step_on_large_carriers(self):
        # P(6): 64 elements, far beyond any family scan; the step must land
        # on a pretopological structure above the input, fixed by one more step
        lat = powerset_lattice(tuple("abcdef"))
        rng = random.Random(29)
        for _ in range(5):
            cs = random_convergence_structure(rng, lat)
            out = s1(cs, "pretop")
            assert classify(out).pretopological
            assert all(lat.leq(cs.limtab[g], out.limtab[g]) for g in range(lat.n))
            assert s1(out, "pretop").limtab == out.limtab

    def test_enumeration_order_is_unchanged(self):
        # every carrier up to 7 elements and its dual, a mask carrier and a
        # dual mask one, and the small fixtures, the non-distributive included
        carriers = [lat for lat in small_coframes(7) for lat in (lat, lat.dual)]
        carriers += [powerset_lattice(tuple("abc")), powerset_lattice(tuple("ab")).dual]
        fixtures = [lattice_fixture(name) for name in lattice_fixture_names()]
        carriers += [lat for lat in dict.fromkeys(fixtures) if lat.n <= 8]
        assert {"M3", "N5"} <= {lat.name for lat in carriers}
        tables = 0
        for lat in carriers:
            for pretopological in (False, True):
                listed = list(enumerate_antitone_tables(lat, pretopological=pretopological))
                assert listed == list(enumerate_tables_recursively(lat, pretopological)), (
                    lat,
                    pretopological,
                )
                tables += len(listed)
        assert len(carriers) == 55 and tables == 64064

    def test_random_draws_are_unchanged(self):
        # every carrier up to 7 elements and its dual, and a mask carrier
        carriers = [lat for lat in small_coframes(7) for lat in (lat, lat.dual)]
        carriers.append(powerset_lattice(tuple("abc")))
        draws = 0
        for pretopological in (False, True):
            a, b = random.Random(24), random.Random(24)
            for lat in carriers:
                for _ in range(5):
                    drawn = random_antitone_table(a, lat, pretopological=pretopological)
                    assert drawn == random_table_by_choice(b, lat, pretopological), lat
                    draws += 1
            assert a.getstate() == b.getstate()
        assert len(carriers) == 43 and draws == 430

    def test_family_step_equals_strict_limit_step(self):
        rng = random.Random(11)
        for name in ("CHAIN3", "BOOL2", "V5"):
            lat = lattice_fixture(name)
            for _ in range(25):
                cs = random_convergence_structure(rng, lat)
                assert s1(cs, "pretop").limtab == s1(cs, "strict_limit").limtab

    def test_step_is_inflationary_and_valid(self):
        rng = random.Random(3)
        for _ in range(30):
            lat = random_downset_lattice(rng)
            cs = random_convergence_structure(rng, lat)
            for kind in S1_KINDS:
                out = s1(cs, kind)  # constructor re-validates antitonicity
                assert all(
                    lat.leq(cs.limtab[g], out.limtab[g]) for g in range(lat.n)
                ), kind

    def test_fixed_points_are_exactly_the_class_members(self):
        # fixed-point characterization, exhaustively on two small fibers
        for name in ("CHAIN2", "CHAIN3"):
            lat = lattice_fixture(name)
            for cs in all_structures(lat):
                got = classify(cs)
                expected = {
                    "limit": got.limit,
                    "strict": got.strict,
                    "strict_limit": got.strict and got.limit,
                    "pretop": got.pretopological,
                }
                for kind in S1_KINDS:
                    fixed = s1(cs, kind).limtab == cs.limtab
                    assert fixed == expected[kind], (name, kind, cs.limtab)

    def test_preserves_classicality(self):
        rng = random.Random(19)
        lat = lattice_fixture("BOOL2")
        for _ in range(40):
            cs = random_convergence_structure(rng, lat)
            if classify(cs).classical:
                for kind in S1_KINDS:
                    assert classify(s1(cs, kind)).classical, kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownKind) as err:
            s1(convergence_fixture("SIERP_LIM"), "bogus")
        assert isinstance(err.value, ValueError) and isinstance(err.value, EngineError)


class TestCompletionIteration:
    def test_closed_form_equals_iteration(self):
        # every antitone table on small_coframes(6), the fixtures, and
        # random tables on P(2)..P(6)
        structures = [
            ConvergenceStructure(lat, t)
            for lat in small_coframes(6)
            for t in enumerate_antitone_tables(lat)
        ]
        structures += [convergence_fixture(name) for name in convergence_fixture_names()]
        rng = random.Random(15)
        for k in range(2, 7):
            lat = powerset_lattice(tuple("abcdef"[:k]))
            structures += [
                ConvergenceStructure(lat, random_antitone_table(rng, lat)) for _ in range(30)
            ]
        for cs in structures:
            for kind in S1_KINDS:
                assert s_infinity(cs, kind).limtab == s_infinity_by_iteration(cs, kind), (
                    cs,
                    kind,
                )

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownKind):
            s_infinity(convergence_fixture("SIERP_LIM"), "bogus")

    def test_already_fixed_points_are_returned_unchanged(self):
        cs = convergence_fixture("SIERP_LIM")
        assert s_infinity(cs, "pretop").limtab == cs.limtab

    def test_discrete_chain2_strict(self):
        cs = discrete_structure(lattice_fixture("CHAIN2"))
        lat = cs.lattice
        assert s_infinity(cs, "strict").limtab == (lat.top, lat.bottom)

    def test_output_lands_in_the_class(self):
        rng = random.Random(23)
        lat = lattice_fixture("BOOL2")
        flag_of = {
            "limit": "limit",
            "strict": "strict",
            "pretop": "pretopological",
        }
        for _ in range(25):
            cs = random_convergence_structure(rng, lat)
            for kind, flag in flag_of.items():
                assert classify(s_infinity(cs, kind)).flags()[flag], kind

    def test_least_fixed_point_above_input(self):
        # brute force: compare against every fixed point dominating the input
        lat = lattice_fixture("CHAIN3")
        structures = all_structures(lat)
        fixed = {
            kind: [
                cs for cs in structures if s1(cs, kind).limtab == cs.limtab
            ]
            for kind in ("limit", "pretop")
        }
        for cs in structures:
            for kind in ("limit", "pretop"):
                close = s_infinity(cs, kind)
                for other in fixed[kind]:
                    if all(
                        lat.leq(cs.limtab[g], other.limtab[g])
                        for g in range(lat.n)
                    ):
                        assert all(
                            lat.leq(close.limtab[g], other.limtab[g])
                            for g in range(lat.n)
                        )


class TestContinuity:
    def test_identity_is_continuous_and_final(self):
        cs = convergence_fixture("SIERP_LIM")
        report = check_continuity(identity_morphism(cs.lattice), cs, cs)
        assert report.continuous and report.final

    def test_coarsening_is_continuous_not_final(self):
        lat = lattice_fixture("BOOL2")
        report = check_continuity(
            identity_morphism(lat),
            chaotic_structure(lat),
            discrete_structure(lat),
        )
        assert report.continuous and not report.final

    def test_refining_fails_with_witness(self):
        lat = lattice_fixture("BOOL2")
        report = check_continuity(
            identity_morphism(lat),
            discrete_structure(lat),
            chaotic_structure(lat),
        )
        assert not report.continuous
        assert report.witness is not None

    def test_constant_map_preimage_is_continuous(self):
        # the preimage morphism of the constant map from the Sierpinski
        # carrier to a single point
        one = lattice_fixture("BOOL1")
        two = lattice_fixture("BOOL2")
        phi = LatticeMorphism(one, two, (two.bottom, two.top), kind="coframe")
        src = chaotic_structure(one)
        report = check_continuity(phi, src, convergence_fixture("SIERP_LIM"))
        assert report.continuous

    def test_carrier_mismatch_rejected(self):
        cs = convergence_fixture("SIERP_LIM")
        other = chaotic_structure(lattice_fixture("CHAIN2"))
        with pytest.raises(LatticeMismatch):
            check_continuity(identity_morphism(cs.lattice), cs, other)

    def test_monotone_map_has_no_preimage_filters(self):
        # the preimage of ^1 is {{0},{1},{0,1}}, not a filter; its least
        # preimage table would report continuous and final
        lat, chain = lattice_fixture("BOOL2"), lattice_fixture("CHAIN2")
        phi = LatticeMorphism(lat, chain, (0, 1, 1, 1), kind="monotone")
        src, tgt = discrete_structure(lat), discrete_structure(chain)
        with pytest.raises(NotAMorphism):
            check_continuity(phi, src, tgt)
        with pytest.raises(NotAMorphism):
            final_lift(chain, [(phi, src)])


class TestFinalLift:
    def test_empty_sink_is_chaotic(self):
        lat = lattice_fixture("BOOL2")
        assert final_lift(lat, []).limtab == (lat.top,) * lat.n

    def test_single_identity_returns_the_structure(self):
        cs = convergence_fixture("SIERP_LIM")
        out = final_lift(cs.lattice, [(identity_morphism(cs.lattice), cs)])
        assert out.limtab == cs.limtab

    def test_two_identities_meet_pointwise(self):
        lat = lattice_fixture("BOOL2")
        rng = random.Random(5)
        for _ in range(20):
            a = random_convergence_structure(rng, lat)
            b = random_convergence_structure(rng, lat)
            out = final_lift(
                lat, [(identity_morphism(lat), a), (identity_morphism(lat), b)]
            )
            assert out.limtab == tuple(
                lat.meet(x, y) for x, y in zip(a.limtab, b.limtab)
            )

    def test_sink_maps_are_continuous_and_lift_is_coarsest(self):
        # universality oracle: every structure making the sink continuous
        # sits below the lift, exhaustively over the target fiber
        two = lattice_fixture("CHAIN2")
        three = lattice_fixture("CHAIN3")
        phi = LatticeMorphism(
            two, three, (three.bottom, three.top), kind="coframe"
        )
        for src in all_structures(two):
            lifted = final_lift(three, [(phi, src)])
            assert check_continuity(phi, src, lifted).continuous
            for other in all_structures(three):
                if check_continuity(phi, src, other).continuous:
                    assert all(
                        three.leq(other.limtab[g], lifted.limtab[g])
                        for g in range(three.n)
                    )

    def test_classicality_is_preserved(self):
        lat = lattice_fixture("BOOL2")
        rng = random.Random(31)
        for _ in range(30):
            a = random_convergence_structure(rng, lat)
            b = random_convergence_structure(rng, lat)
            if classify(a).classical and classify(b).classical:
                out = final_lift(
                    lat,
                    [(identity_morphism(lat), a), (identity_morphism(lat), b)],
                )
                assert classify(out).classical


class TestFunctoriality:
    def test_s1_keeps_sink_maps_continuous(self):
        # applying the same completion step on both sides of a continuous
        # morphism keeps it continuous
        two = lattice_fixture("CHAIN2")
        three = lattice_fixture("CHAIN3")
        phi = LatticeMorphism(
            two, three, (three.bottom, three.top), kind="coframe"
        )
        for src in all_structures(two):
            for tgt in all_structures(three):
                if not check_continuity(phi, src, tgt).continuous:
                    continue
                for kind in S1_KINDS:
                    assert check_continuity(
                        phi, s1(src, kind), s1(tgt, kind)
                    ).continuous, kind


@st.composite
def seeded_structure(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    lat = random_downset_lattice(rng, max_elements=8)
    return random_convergence_structure(rng, lat)


class TestRandomized:
    @given(seeded_structure())
    @settings(max_examples=40, deadline=None)
    def test_flag_implications_hold(self, cs):
        got = classify(cs)
        if got.topological:
            assert got.pretopological
        if got.pretopological:
            assert got.strict and got.limit

    @given(seeded_structure())
    @settings(max_examples=25, deadline=None)
    def test_iterated_completions_idempotent(self, cs):
        for kind in ("limit", "pretop"):
            out = s_infinity(cs, kind)
            assert s1(out, kind).limtab == out.limtab
