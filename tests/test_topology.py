"""Topological structures, their closure/convergence passages, sublocales."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest

from coframes import (
    AxiomViolation,
    BudgetExceeded,
    C_of_nu,
    ConvergenceStructure,
    NotASublattice,
    NotAMorphism,
    NotComplemented,
    NotDistributive,
    StarFormulaMismatch,
    adh_structure_of,
    adherence_structure,
    adherence_violation,
    analyze,
    check_continuity,
    classify,
    closed_sets,
    enumerate_topologies,
    is_strong,
    is_topological,
    lim_of_C,
    lim_of_nu,
    maps_closed_to_closed,
    nu_of_C,
    star,
    sublocale_counit,
    sublocale_lattice,
    sublocale_map,
    topological_modification,
    topological_structure,
    wedge_C,
)
from coframes.fixtures import (
    adherence_fixture,
    convergence_fixture,
    convergence_fixture_names,
    enumerate_antitone_tables,
    lattice_fixture,
    lattice_fixture_names,
    random_convergence_structure,
    topology_fixture,
    topology_fixture_names,
)
from coframes.laws import star_extension_unique
from coframes.search import small_coframes
from coframes.topology import _SUBLOCALE_BUDGET, TopologicalStructure, _atom_closures
from coframes.lattice import (
    LatticeMorphism,
    _table_violation,
    _trusted,
    bits,
    compose,
    dualize,
    identity_morphism,
    morphism_violation,
    powerset_lattice,
    require_sublattice,
)


def heyting_implication(lattice, u, v):
    """Oracle: the largest ``w`` with ``w ∧ u <= v`` (meets in the lattice's
    own orientation), by a scan over every element; raises
    :class:`NotDistributive` when that join fails the property."""
    best = lattice.join_of(
        w for w in range(lattice.n) if lattice.leq(lattice.meet(w, u), v)
    )
    if not lattice.leq(lattice.meet(best, u), v):
        raise NotDistributive(
            f"{lattice.name}: implication {lattice.label(u)!r} -> "
            f"{lattice.label(v)!r} does not exist"
        )
    return best


def star_extension_unique_by_scan(sl, extension):
    """The oracle for :func:`star_extension_unique`: every table that keeps
    the values on the closed sublocales, in lexicographic order over the
    other sublocales, checked with the morphism laws."""
    target = extension.target
    forced = set(sl.closed_index)
    free = [i for i in range(sl.lattice.n) if i not in forced]
    for combo in itertools.product(range(target.n), repeat=len(free)):
        table = list(extension.values)
        for i, v in zip(free, combo):
            table[i] = v
        if tuple(table) == extension.values:
            continue
        if _table_violation(sl.lattice, target, table, "coframe") is None:
            return False, (
                f"a second morphism {tuple(table)} agrees on the closed "
                f"sublocales with {extension.values}"
            )
    return True, ""


def frame_fixtures():
    """Every distributive lattice fixture with few enough primes for
    sublocales."""
    return [
        lat
        for lat in map(lattice_fixture, lattice_fixture_names())
        if analyze(lat).distributive
        and analyze(lat).meet_primes.bit_count() <= _SUBLOCALE_BUDGET
    ]


def distributive_carriers():
    """Every carrier of ``small_coframes(8)`` and every distributive fixture."""
    fixtures = map(lattice_fixture, lattice_fixture_names())
    return list(small_coframes(8)) + [l for l in fixtures if analyze(l).distributive]


def topologies_by_subset_scan(lattice):
    """Reference oracle: the closed masks of every topology, by scanning all
    subsets of the non-bound complemented elements for meet/join closure,
    ordered by (member count, mask)."""
    comp = analyze(lattice).complemented
    optional = [c for c in bits(comp) if c != lattice.bottom and c != lattice.top]
    base = 1 << lattice.bottom | 1 << lattice.top
    found = []
    for pick in range(1 << len(optional)):
        mask = base
        for i in bits(pick):
            mask |= 1 << optional[i]
        elems = list(bits(mask))
        if all(
            mask >> lattice.meet(a, b) & 1 and mask >> lattice.join(a, b) & 1
            for a in elems
            for b in elems
        ):
            found.append(mask)
    return sorted(found, key=lambda m: (m.bit_count(), m))


def sublocales_by_subset_scan(omega):
    """Reference oracle: the member masks of every sublocale of a frame, by
    scanning all subsets for top, meet closure and closure under the
    implication table, ordered by (member count, mask)."""
    n = omega.n
    imp = [[heyting_implication(omega, u, v) for v in range(n)] for u in range(n)]
    members = []
    for s in range(1 << n):
        if not s >> omega.top & 1:
            continue
        elems = list(bits(s))
        if not all(s >> omega.meet(a, b) & 1 for a in elems for b in elems):
            continue
        if not all(s >> imp[u][v] & 1 for u in range(n) for v in elems):
            continue
        members.append(s)
    return sorted(members, key=lambda s: (s.bit_count(), s))


def labels(lat, items):
    return [lat.label(i) for i in items]


def by_label(lat, *names):
    return [lat.index(n) for n in names]


class TestConstructor:
    def test_rejects_uncomplemented_members(self):
        lat = lattice_fixture("CHAIN3")
        with pytest.raises(NotComplemented, match="'m'"):
            topological_structure(lat, range(lat.n))

    def test_rejects_non_sublattice(self):
        lat = lattice_fixture("BOOL3")
        members = by_label(lat, "{}", "{1}", "{2}", "{1,2,3}")
        with pytest.raises(NotASublattice):
            topological_structure(lat, members)

    def test_rejects_missing_bounds(self):
        lat = lattice_fixture("BOOL2")
        with pytest.raises(AxiomViolation) as err:
            topological_structure(lat, [lat.top])
        assert err.value.axiom == "topology.bounds"

    def test_rejects_nondistributive_carrier(self):
        lat = lattice_fixture("M3")
        with pytest.raises(NotDistributive):
            topological_structure(lat, [lat.bottom, lat.top])

    def test_rejects_out_of_range_member(self):
        lat = lattice_fixture("BOOL2")
        with pytest.raises(AxiomViolation):
            topological_structure(lat, [lat.bottom, lat.top, 99])

    def test_agrees_with_the_pair_scan(self):
        # every family of complemented elements holding both bounds, on the
        # carriers of up to ten elements and on P(4): the atom-closure check
        # accepts exactly the families the all-pairs scan accepts, and each
        # rejection names a pair of members whose meet or join is outside
        carriers = list(small_coframes(10)) + [powerset_lattice("abcd")]
        witness = re.compile(r"(meet|join) of '(.*)' and '(.*)' is '(.*)', outside the subset")
        families = rejected = 0
        for lat in carriers:
            base = 1 << lat.bottom | 1 << lat.top
            optional = list(bits(analyze(lat).complemented & ~base))
            for pick in range(1 << len(optional)):
                mask = base | sum(1 << optional[i] for i in bits(pick))
                try:
                    require_sublattice(lat, list(bits(mask)))
                    expected = True
                except NotASublattice:
                    expected = False
                try:
                    TopologicalStructure(lat, mask)
                    got = True
                except NotASublattice as err:
                    got = False
                    word, a, b, r = witness.fullmatch(str(err)).groups()
                    a, b, r = map(lat.index, (a, b, r))
                    assert mask >> a & 1 and mask >> b & 1 and not mask >> r & 1
                    assert r == (lat.meet if word == "meet" else lat.join)(a, b)
                assert got == expected, (lat.name, mask)
                families += 1
                rejected += not got
        assert (families, rejected) == (16577, 16064)


class TestClosureOperator:
    def test_sierpinski_closure_table(self):
        ts = topology_fixture("SIERP_TOP")
        assert nu_of_C(ts).nutab == adherence_fixture("SIERP_ADH").nutab

    def test_indiscrete_closure_table(self):
        ts = topology_fixture("INDISCRETE_TOP")
        lat = ts.lattice
        assert nu_of_C(ts).nutab == tuple(
            lat.bottom if l == lat.bottom else lat.top for l in range(lat.n)
        )

    def test_closure_laws(self):
        # inflationary; closed elements are exactly their own closures;
        # a closed element dominates the closure iff it dominates the element;
        # idempotent
        for name in ("BOOL2", "PX3", "V5", "CHAIN3"):
            lat = lattice_fixture(name)
            for ts in enumerate_topologies(lat):
                nu = nu_of_C(ts).nutab
                for l in range(lat.n):
                    assert lat.leq(l, nu[l])
                    assert nu[nu[l]] == nu[l]
                    for c in bits(ts.closed):
                        assert lat.leq(nu[l], c) == lat.leq(l, c)
                for c in bits(ts.closed):
                    assert nu[c] == c

    def test_closure_satisfies_the_adherence_axioms(self):
        # every topology of small_coframes(6), BOOL3, PX3 and V5
        carriers = list(small_coframes(6)) + [
            lattice_fixture(name) for name in ("BOOL3", "PX3", "V5")
        ]
        for lat in carriers:
            for ts in enumerate_topologies(lat):
                assert adherence_violation(lat, nu_of_C(ts).nutab) is None, ts

    def test_equals_the_meet_over_all_closed_elements_above(self):
        # oracle for the fold: the meet over the whole of up[l] & closed
        for lat in distributive_carriers():
            for ts in enumerate_topologies(lat):
                assert nu_of_C(ts).nutab == tuple(
                    lat.meet_of(bits(row & ts.closed)) for row in lat.up
                ), ts

    def test_fixed_points_are_the_closed_elements(self):
        for name in ("BOOL2", "PX3"):
            lat = lattice_fixture(name)
            for ts in enumerate_topologies(lat):
                nu = nu_of_C(ts).nutab
                fixed = {l for l in range(lat.n) if nu[l] == l}
                assert fixed == set(bits(ts.closed))
                _, mapping = wedge_C(ts)
                assert fixed == set(mapping)


class TestClosureGalois:
    def test_more_closed_elements_give_smaller_closures(self):
        lat = lattice_fixture("PX3")
        topos = list(enumerate_topologies(lat))
        for a in topos:
            for b in topos:
                if a.closed & b.closed == a.closed:
                    na, nb = nu_of_C(a).nutab, nu_of_C(b).nutab
                    assert all(lat.leq(nb[l], na[l]) for l in range(lat.n))

    def test_smaller_adherence_gives_more_closed_elements(self):
        lat = lattice_fixture("BOOL2")
        from coframes import enumerate_adherence_structures

        structures = list(enumerate_adherence_structures(lat))
        for a in structures:
            for b in structures:
                if all(lat.leq(x, y) for x, y in zip(a.nutab, b.nutab)):
                    assert C_of_nu(b).closed & C_of_nu(a).closed == C_of_nu(b).closed

    def test_topology_roundtrip_is_identity(self):
        for name in ("BOOL2", "PX3", "V5", "CHAIN3"):
            lat = lattice_fixture(name)
            for ts in enumerate_topologies(lat):
                assert C_of_nu(nu_of_C(ts)).closed == ts.closed

    def test_adherence_roundtrip_only_dominates(self):
        lat = lattice_fixture("BOOL2")
        from coframes import enumerate_adherence_structures

        for ns in enumerate_adherence_structures(lat):
            back = nu_of_C(C_of_nu(ns)).nutab
            assert all(lat.leq(ns.nutab[l], back[l]) for l in range(lat.n))

    def test_adherence_roundtrip_gap_witness(self):
        # the singleton 1 closes to {1,2}, which is not closed, so the
        # induced topology coarsens its closure all the way to the top
        ns = adherence_fixture("PX3_ADH")
        lat = ns.lattice
        back = nu_of_C(C_of_nu(ns)).nutab
        one = lat.index("{1}")
        assert lat.label(ns.nutab[one]) == "{1,2}"
        assert back[one] == lat.top


class TestTopologicalConvergence:
    def test_sierpinski_topology_gives_sierpinski_convergence(self):
        got = lim_of_C(topology_fixture("SIERP_TOP"))
        assert got.limtab == convergence_fixture("SIERP_LIM").limtab

    def test_factors_through_the_closure_operator(self):
        for name in ("BOOL2", "PX3", "V5"):
            lat = lattice_fixture(name)
            for ts in enumerate_topologies(lat):
                assert lim_of_C(ts).limtab == lim_of_nu(nu_of_C(ts)).limtab

    def test_output_is_topological_with_the_same_closed_elements(self):
        for name in ("BOOL2", "PX3"):
            lat = lattice_fixture(name)
            for ts in enumerate_topologies(lat):
                cs = lim_of_C(ts)
                assert classify(cs).topological
                assert set(closed_sets(cs).closed) == set(bits(ts.closed))


class TestModification:
    def test_px3_pretopology_modifies_to_its_closed_family(self):
        cs = convergence_fixture("PX3_PRETOP")
        got = topological_modification(cs)
        assert got.limtab == lim_of_C(topology_fixture("PX3_TOP")).limtab
        assert not is_topological(cs)
        assert is_topological(got)

    def test_is_topological_equals_fixed_by_the_modification(self):
        # is_topological compares entries without building the modification;
        # the definition builds it, on every small structure and fixture
        corpus = [
            ConvergenceStructure(lat, t)
            for lat in small_coframes(6)
            for t in enumerate_antitone_tables(lat)
        ]
        assert len(corpus) == 2893
        corpus += [convergence_fixture(name) for name in convergence_fixture_names()]
        hits = 0
        for cs in corpus:
            expected = cs.limtab == topological_modification(cs).limtab
            assert is_topological(cs) == expected, cs
            hits += expected
        assert 0 < hits < len(corpus)

    def test_coarsens_idempotently_and_fixes_topological_inputs(self):
        rng = random.Random(83)
        for name in ("CHAIN3", "BOOL2", "PX3", "V5"):
            lat = lattice_fixture(name)
            for _ in range(20):
                cs = random_convergence_structure(rng, lat)
                mod = topological_modification(cs)
                assert all(
                    lat.leq(cs.limtab[g], mod.limtab[g]) for g in range(lat.n)
                )
                again = topological_modification(mod)
                assert again.limtab == mod.limtab
                assert classify(mod).topological
        for ts in enumerate_topologies(lattice_fixture("BOOL2")):
            cs = lim_of_C(ts)
            assert topological_modification(cs).limtab == cs.limtab

    def test_preserves_the_closed_family(self):
        rng = random.Random(89)
        for name in ("BOOL2", "PX3"):
            lat = lattice_fixture(name)
            for _ in range(20):
                cs = random_convergence_structure(rng, lat)
                mod = topological_modification(cs)
                assert closed_sets(mod).closed == closed_sets(cs).closed

    def test_minimality_against_every_topology(self):
        # brute force: among all topological structures whose convergence
        # coarsens the input, the modification is the finest
        rng = random.Random(97)
        for name in ("CHAIN3", "BOOL2", "V5"):
            lat = lattice_fixture(name)
            for _ in range(15):
                cs = random_convergence_structure(rng, lat)
                mod = topological_modification(cs)
                coarser = []
                for ts in enumerate_topologies(lat):
                    cand = lim_of_C(ts)
                    if all(
                        lat.leq(cs.limtab[g], cand.limtab[g])
                        for g in range(lat.n)
                    ):
                        coarser.append(cand)
                assert any(cand.limtab == mod.limtab for cand in coarser)
                for cand in coarser:
                    assert all(
                        lat.leq(mod.limtab[g], cand.limtab[g])
                        for g in range(lat.n)
                    )


def coframe_endomorphisms(lat):
    return [
        LatticeMorphism(lat, lat, values, kind="coframe")
        for values in itertools.product(range(lat.n), repeat=lat.n)
        if _table_violation(lat, lat, values, "coframe") is None
    ]


class TestClosedMaps:
    def test_agrees_with_filter_continuity_between_topologies(self):
        lat = lattice_fixture("BOOL2")
        topos = list(enumerate_topologies(lat))
        for phi in coframe_endomorphisms(lat):
            for src in topos:
                for tgt in topos:
                    ok, witness = maps_closed_to_closed(phi, src, tgt)
                    report = check_continuity(phi, lim_of_C(src), lim_of_C(tgt))
                    assert ok == report.continuous
                    assert (witness is None) == ok

    def test_witness_names_the_offending_element(self):
        lat = lattice_fixture("BOOL2")
        src = topology_fixture("DISCRETE_TOP")
        tgt = topology_fixture("INDISCRETE_TOP")
        ok, witness = maps_closed_to_closed(identity_morphism(lat), src, tgt)
        assert not ok and "non-closed" in witness


class TestEnumeration:
    def test_counts(self):
        # two-point carrier: indiscrete, two one-sided, discrete; a carrier
        # with only trivial complements admits only the indiscrete topology;
        # three labeled points admit 29 topologies
        assert sum(1 for _ in enumerate_topologies(lattice_fixture("BOOL2"))) == 4
        assert sum(1 for _ in enumerate_topologies(lattice_fixture("V5"))) == 1
        assert sum(1 for _ in enumerate_topologies(lattice_fixture("CHAIN3"))) == 1
        assert sum(1 for _ in enumerate_topologies(lattice_fixture("PX3"))) == 29
        assert sum(1 for _ in enumerate_topologies(lattice_fixture("BOOL3"))) == 29

    def test_coarsest_first(self):
        sizes = [
            ts.closed.bit_count()
            for ts in enumerate_topologies(lattice_fixture("PX3"))
        ]
        assert sizes == sorted(sizes)
        assert sizes[0] == 2 and sizes[-1] == 8

    def test_budget(self):
        # the budget bounds the number of topologies: BOOL4 has 355
        lat = lattice_fixture("BOOL4")
        with pytest.raises(BudgetExceeded):
            list(enumerate_topologies(lat, budget=354))
        assert len(list(enumerate_topologies(lat, budget=355))) == 355

    def test_powerset_counts_are_labelled_topologies(self):
        # topologies on k labelled points, OEIS A000798
        counts = [
            sum(1 for _ in enumerate_topologies(powerset_lattice([str(i) for i in range(k)])))
            for k in range(6)
        ]
        assert counts == [1, 1, 4, 29, 355, 6942]

    def test_equals_the_subset_scan(self):
        for lat in distributive_carriers():
            got = [ts.closed for ts in enumerate_topologies(lat)]
            assert got == topologies_by_subset_scan(lat), lat.name


class TestHeyting:
    def test_frozen_values(self):
        lat = lattice_fixture("BOOL2")
        zero, one = by_label(lat, "{0}", "{1}")
        assert heyting_implication(lat, zero, one) == one
        chain = lattice_fixture("CHAIN3")
        m = chain.index("m")
        assert heyting_implication(chain, m, chain.bottom) == chain.bottom
        assert heyting_implication(chain, chain.bottom, m) == chain.top
        for u in range(chain.n):
            assert heyting_implication(chain, u, chain.top) == chain.top
            assert heyting_implication(chain, chain.top, u) == u

    def test_characteristic_property(self):
        for name in ("CHAIN4", "BOOL2", "V5", "PX3"):
            lat = lattice_fixture(name)
            for u in range(lat.n):
                for v in range(lat.n):
                    imp = heyting_implication(lat, u, v)
                    for w in range(lat.n):
                        assert lat.leq(lat.meet(w, u), v) == lat.leq(w, imp)

    def test_nondistributive_carrier_rejected(self):
        lat = lattice_fixture("M3")
        atoms = [l for l in range(lat.n) if l not in (lat.bottom, lat.top)]
        with pytest.raises(NotDistributive):
            heyting_implication(lat, atoms[0], atoms[1])


class TestSublocales:
    def test_two_element_chain_has_two_sublocales(self):
        sl = sublocale_lattice(lattice_fixture("CHAIN2"))
        assert sl.lattice.n == 2

    def test_three_element_chain_members(self):
        omega = lattice_fixture("CHAIN3")
        sl = sublocale_lattice(omega)
        assert sl.lattice.n == 4
        assert list(sl.lattice.elements) == ["{1}", "{0,1}", "{m,1}", "{0,m,1}"]
        # the closed part of the middle element keeps everything above it;
        # the open part is everything forced by implication into it
        assert sl.lattice.label(sl.closed_index[omega.index("m")]) == "{m,1}"
        assert sl.lattice.label(sl.open_index[omega.index("m")]) == "{0,1}"

    def test_boolean_frame_sublocales_are_its_own_elements(self):
        # on a Boolean frame every sublocale is closed: the lattice of
        # sublocales is the frame again (up to dualizing)
        for name in ("BOOL2", "BOOL3"):
            omega = lattice_fixture(name)
            sl = sublocale_lattice(omega)
            assert sl.lattice.n == omega.n
            assert sorted(sl.closed_index) == list(range(omega.n))

    def test_diamond_bounds_pair_is_not_a_sublocale(self):
        # {bottom, top} fails implication closure on a Boolean frame bigger
        # than a chain, so it does not appear
        omega = lattice_fixture("BOOL2")
        sl = sublocale_lattice(omega)
        pair = 1 << omega.bottom | 1 << omega.top
        assert pair not in sl.masks

    def test_masks_are_intersection_closed(self):
        for name in ("CHAIN3", "BOOL2", "PX3"):
            sl = sublocale_lattice(lattice_fixture(name))
            members = set(sl.masks)
            for s in members:
                for t in members:
                    assert s & t in members

    def test_meets_are_intersections_and_joins_cover_unions(self):
        sl = sublocale_lattice(lattice_fixture("PX3"))
        lat = sl.lattice
        for i in range(lat.n):
            for j in range(lat.n):
                assert sl.masks[lat.meet(i, j)] == sl.masks[i] & sl.masks[j]
                join_mask = sl.masks[lat.join(i, j)]
                union = sl.masks[i] | sl.masks[j]
                assert join_mask & union == union
                for k in range(lat.n):
                    if sl.masks[k] & union == union:
                        assert join_mask & sl.masks[k] == join_mask

    def test_closed_embedding_is_an_order_embedding(self):
        for omega in frame_fixtures():
            sl = sublocale_lattice(omega)
            assert morphism_violation(sl.closed_embedding) is None
            assert len(set(sl.closed_index)) == omega.n
            opposite = dualize(omega)
            for u in range(omega.n):
                for v in range(omega.n):
                    assert opposite.leq(u, v) == sl.lattice.leq(
                        sl.closed_index[u], sl.closed_index[v]
                    )

    def test_equals_the_subset_scan(self):
        frames = [omega for omega in distributive_carriers() if omega.n <= 8]
        for omega in frames:
            masks = sublocale_lattice(omega).masks
            assert len(set(masks)) == len(masks), omega.name
            assert set(masks) == set(sublocales_by_subset_scan(omega)), omega.name

    def test_each_index_is_the_prime_set_of_its_sublocale(self):
        # masks[S] is the closure of prime set S under top and binary meets,
        # and the primes it holds are S
        for omega in frame_fixtures() + list(small_coframes(8)):
            primes = list(bits(analyze(omega).meet_primes))
            sl = sublocale_lattice(omega)
            assert sl.lattice.n == len(sl.masks) == 1 << len(primes)
            for s, members in enumerate(sl.masks):
                closure = {omega.top} | {primes[i] for i in bits(s)}
                while True:
                    grown = closure | {omega.meet(x, y) for x in closure for y in closure}
                    if grown == closure:
                        break
                    closure = grown
                assert members == sum(1 << x for x in closure), (omega.name, s)
                assert [i for i, p in enumerate(primes) if members >> p & 1] == list(bits(s))

    def test_open_and_closed_parts_complement(self):
        for omega in frame_fixtures():
            sl = sublocale_lattice(omega)
            lat = sl.lattice
            complement = analyze(lat).complement
            for u in range(omega.n):
                c, o = sl.closed_index[u], sl.open_index[u]
                # the open part is the sublocale of implications into u's image
                implications = {heyting_implication(omega, u, v) for v in range(omega.n)}
                assert set(bits(sl.masks[o])) == implications
                assert complement[c] == o
                assert lat.meet(c, o) == lat.bottom
                assert lat.join(c, o) == lat.top

    def test_budget_and_distributivity_guards(self):
        # P(8) has 8 primes, one above the cap; BOOL4's 4 primes give 16
        with pytest.raises(BudgetExceeded):
            sublocale_lattice(powerset_lattice([str(i) for i in range(8)]))
        assert sublocale_lattice(lattice_fixture("BOOL4")).lattice.n == 16
        with pytest.raises(NotDistributive):
            sublocale_lattice(lattice_fixture("N5"))

    def test_canonical_topology_is_valid_and_strong(self):
        for name in ("CHAIN3", "BOOL2"):
            sl = sublocale_lattice(lattice_fixture(name))
            ts = sl.canonical_topology()
            assert is_strong(ts)


class TestStrength:
    def test_every_finite_topology_is_strong(self):
        # finite meets reach arbitrary infima, so the wedge adds nothing;
        # verified by computing the closure rather than assuming it
        carriers = list(small_coframes(8)) + [lattice_fixture(n) for n in ("BOOL2", "PX3")]
        for lat in carriers:
            for ts in enumerate_topologies(lat):
                assert is_strong(ts)
                wedge, mapping = wedge_C(ts)
                assert wedge.n == ts.closed.bit_count()
                assert set(mapping) == set(bits(ts.closed))


class TestStar:
    def test_values_length_guard(self):
        sl = sublocale_lattice(lattice_fixture("CHAIN2"))
        with pytest.raises(AxiomViolation):
            star(sl, lattice_fixture("CHAIN2"), [0])

    def test_uncomplemented_image_rejected(self):
        omega = lattice_fixture("CHAIN3")
        sl = sublocale_lattice(omega)
        with pytest.raises(NotComplemented):
            star(sl, omega, list(range(omega.n)))

    def test_non_morphism_values_rejected(self):
        omega = lattice_fixture("CHAIN2")
        sl = sublocale_lattice(omega)
        bool2 = lattice_fixture("BOOL2")
        with pytest.raises(NotAMorphism):
            star(sl, bool2, [bool2.bottom, bool2.index("{0}")])

    def test_extension_restricts_to_the_given_values(self):
        omega = lattice_fixture("BOOL2")
        sl = sublocale_lattice(omega)
        values = list(range(omega.n))
        phi = star(sl, omega, values)
        for u in range(omega.n):
            assert phi.values[sl.closed_index[u]] == values[u]

    def test_extension_is_unique(self):
        # the pruned search and the exhaustive scan over tables agreeing on
        # closed sublocales, on the frame-map cases above and every topology
        # fixture's collapse
        omega = lattice_fixture("BOOL2")
        sl = sublocale_lattice(omega)
        cases = [(sl, star(sl, omega, list(range(omega.n))))]
        chain2, chain3 = lattice_fixture("CHAIN2"), lattice_fixture("CHAIN3")
        sl2, sl3 = sublocale_lattice(chain2), sublocale_lattice(chain3)
        cases.append((sl2, sublocale_map(sl2, sl3, [chain3.bottom, chain3.top])))
        cases.append((sl3, sublocale_map(sl3, sl2, [0, 0, 1])))
        cases += [sublocale_counit(topology_fixture(n)) for n in topology_fixture_names()]
        for sl, extension in cases:
            assert star_extension_unique(sl, extension) == (True, ""), extension
            assert star_extension_unique_by_scan(sl, extension) == (True, "")

    def test_uniqueness_scan_finds_the_true_extension(self):
        # a table that agrees on closed sublocales but is not the extension
        # is caught: the search meets the genuine morphism, as the scan does
        sl, collapse = sublocale_counit(topology_fixture("PX3_TOP"))
        free = next(i for i in range(sl.lattice.n) if i not in sl.closed_index)
        wrong = list(collapse.values)
        wrong[free] = (wrong[free] + 1) % collapse.target.n
        forged = _trusted(
            LatticeMorphism,
            source=sl.lattice,
            target=collapse.target,
            values=tuple(wrong),
            kind="coframe",
        )
        ok, message = star_extension_unique(sl, forged)
        assert not ok and f"a second morphism {collapse.values} " in message
        assert (ok, message) == star_extension_unique_by_scan(sl, forged)

    def test_search_meets_second_morphisms_in_scan_order(self):
        # with only some closed sublocales forced, several morphisms agree
        # on them; the search reports the scan's first one
        omega = lattice_fixture("BOOL2")
        sl = sublocale_lattice(omega)
        cases = [(sl, star(sl, omega, list(range(omega.n))))]
        cases += [
            sublocale_counit(topology_fixture(n))
            for n in ("SIERP_TOP", "DISCRETE_TOP", "INDISCRETE_TOP")
        ]
        second = 0
        for sl, extension in cases:
            for k in range(len(sl.closed_index) + 1):
                fewer = dataclasses.replace(sl, closed_index=sl.closed_index[:k])
                got = star_extension_unique(fewer, extension)
                assert got == star_extension_unique_by_scan(fewer, extension)
                second += not got[0]
        assert second >= 6


class TestSublocaleFunctor:
    def test_identity_frame_map_gives_identity(self):
        omega = lattice_fixture("CHAIN3")
        sl = sublocale_lattice(omega)
        mu = sublocale_map(sl, sl, list(range(omega.n)))
        assert mu.values == tuple(range(sl.lattice.n))

    def test_naturality_square(self):
        # acting on sublocales then taking closed parts agrees with taking
        # closed parts then applying the frame morphism
        src = lattice_fixture("CHAIN2")
        tgt = lattice_fixture("CHAIN3")
        sl_src = sublocale_lattice(src)
        sl_tgt = sublocale_lattice(tgt)
        frame_values = [tgt.bottom, tgt.top]
        mu = sublocale_map(sl_src, sl_tgt, frame_values)
        for u in range(src.n):
            assert mu.values[sl_src.closed_index[u]] == sl_tgt.closed_index[
                frame_values[u]
            ]

    def test_composition(self):
        a = lattice_fixture("CHAIN2")
        b = lattice_fixture("CHAIN3")
        sl_a = sublocale_lattice(a)
        sl_b = sublocale_lattice(b)
        ab = [b.bottom, b.top]
        ba = [a.bottom, a.bottom, a.top]
        mu_ab = sublocale_map(sl_a, sl_b, ab)
        mu_ba = sublocale_map(sl_b, sl_a, ba)
        both = sublocale_map(sl_a, sl_a, [ba[v] for v in ab])
        assert compose(mu_ba, mu_ab).values == both.values


class TestCounit:
    def test_collapse_hits_the_closed_elements(self):
        for name in ("SIERP_TOP", "DISCRETE_TOP", "PX3_TOP", "INDISCRETE_TOP"):
            ts = topology_fixture(name)
            sl, collapse = sublocale_counit(ts)
            assert collapse.target is ts.lattice
            assert morphism_violation(collapse) is None
            wedge, mapping = wedge_C(ts)
            for w in range(wedge.n):
                assert collapse.values[sl.closed_index[w]] == mapping[w]

    def test_distinct_atom_closures_count_the_primes_of_the_closed_part(self):
        # the size check before the wedge: the closed part's frame has one
        # prime per distinct closure of a complemented atom
        for lat in small_coframes(8):
            for ts in enumerate_topologies(lat):
                closures = set(_atom_closures(lat, ts.closed))
                frame = dualize(wedge_C(ts)[0])
                assert len(closures) == analyze(frame).meet_primes.bit_count(), ts

    def test_refuses_nine_primes_before_building_the_wedge(self, monkeypatch):
        lat = powerset_lattice("abcdefghi")
        ts = topological_structure(lat, range(lat.n))

        def no_wedge(ts):
            raise AssertionError("wedge_C built before the size check")

        monkeypatch.setattr("coframes.topology.wedge_C", no_wedge)
        with pytest.raises(BudgetExceeded, match=r"9 primes \(limit 7\)"):
            sublocale_counit(ts)

    def test_boolean_carrier_collapse_is_an_isomorphism(self):
        ts = topology_fixture("DISCRETE_TOP")
        sl, collapse = sublocale_counit(ts)
        assert sl.lattice.n == ts.lattice.n
        assert sorted(collapse.values) == list(range(ts.lattice.n))

    def test_retract_triangle(self):
        # embedding the closed part of the collapsed carrier back into
        # sublocales and collapsing again is the identity
        for name in ("SIERP_TOP", "DISCRETE_TOP", "INDISCRETE_TOP"):
            ts = topology_fixture(name)
            sl, collapse = sublocale_counit(ts)
            canon = sl.canonical_topology()
            sl2, collapse2 = sublocale_counit(canon)
            wedge2, mapping2 = wedge_C(canon)
            omega = dualize(wedge_C(ts)[0])
            iso = [mapping2.index(sl.closed_index[u]) for u in range(omega.n)]
            mu = sublocale_map(sl, sl2, iso)
            roundtrip = compose(collapse2, mu)
            assert roundtrip.values == tuple(range(sl.lattice.n))
            assert compose(collapse, roundtrip).values == collapse.values
