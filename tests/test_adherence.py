"""Adherence structures: axioms, the limit/adherence passage, final lifts."""

from __future__ import annotations

import itertools
import random

import pytest

from coframes import (
    AdherenceStructure,
    AxiomViolation,
    ConvergenceStructure,
    adh_structure_of,
    adherence_structure,
    adherence_violation,
    analyze,
    check_adh_continuity,
    check_continuity,
    classify,
    closed_sets,
    complemented_atoms,
    enumerate_adherence_structures,
    final_lift_adh,
    lim_of_nu,
    random_adherence_structure,
)
from coframes.adherence import adherence_from_atom_values
from coframes.fixtures import (
    adherence_fixture,
    chaotic_structure,
    convergence_fixture,
    discrete_structure,
    enumerate_antitone_tables,
    lattice_fixture,
    lattice_fixture_names,
)
from coframes.lattice import (
    LatticeMorphism,
    _table_violation,
    bits,
    identity_morphism,
    left_adjoint,
    powerset_lattice,
)
from coframes.search import small_coframes
from oracles import random_convergence_structure


def labels(lat, items):
    return [lat.label(i) for i in items]


def small_carriers(max_elements):
    """The distributive carriers with at most ``max_elements`` elements."""
    fixtures = [lattice_fixture(name) for name in lattice_fixture_names()]
    return list(small_coframes(max_elements)) + [
        lat for lat in fixtures if lat.n <= max_elements and analyze(lat).distributive
    ]


def valid_tables_oracle(lat):
    """Brute force: every self-map table passing the axiom scan."""
    return {
        tab
        for tab in itertools.product(range(lat.n), repeat=lat.n)
        if adherence_violation(lat, tab) is None
    }


class TestValidation:
    def test_monotonicity_witness(self):
        lat = lattice_fixture("CHAIN3")
        tab = [0] * lat.n
        tab[lat.index("m")] = lat.top
        tab[lat.top] = lat.index("m")
        violation = adherence_violation(lat, tuple(tab))
        assert violation is not None and violation[0] == "adherence.monotone"
        assert "'m'" in violation[1]

    def test_cover_pair_monotone_scan_equals_all_pairs_scan(self):
        # every self-map of every distributive carrier with at most 5 elements
        fixtures = [lattice_fixture(name) for name in lattice_fixture_names()]
        carriers = list(small_coframes(5)) + [
            lat for lat in fixtures if lat.n <= 5 and analyze(lat).distributive
        ]
        for lat in carriers:
            for tab in itertools.product(range(lat.n), repeat=lat.n):
                monotone = all(
                    lat.leq(tab[l], tab[m]) for l in range(lat.n) for m in bits(lat.up[l])
                )
                violation = adherence_violation(lat, tab)
                flagged = violation is not None and violation[0] == "adherence.monotone"
                assert flagged == (not monotone), (lat, tab)

    def test_bottom_must_map_to_bottom(self):
        lat = lattice_fixture("CHAIN2")
        violation = adherence_violation(lat, (lat.top, lat.top))
        assert violation is not None and violation[0] == "adherence.bottom"

    def test_additivity_witness(self):
        lat = lattice_fixture("BOOL2")
        tab = [lat.bottom] * lat.n
        tab[lat.top] = lat.top
        violation = adherence_violation(lat, tuple(tab))
        assert violation is not None and violation[0] == "adherence.additive"

    def test_atom_additivity_check_equals_the_complemented_pair_scan(self):
        # pointwise meets of two adherences are monotone, grounded and
        # infimum-determined, and often not additive: the pair scan over the
        # complemented part is the oracle, and a reported pair must fail it
        carriers = small_carriers(8)
        rng = random.Random(5)
        broken = 0
        for lat in carriers:
            structures = list(itertools.islice(enumerate_adherence_structures(lat, budget=10**9), 40))
            structures += [random_adherence_structure(rng, lat) for _ in range(20)]
            comp = list(bits(analyze(lat).complemented))
            label = {lat.label(c): c for c in comp}
            for a, b in itertools.product(structures[::3], structures[1::3]):
                tab = tuple(lat.meet(x, y) for x, y in zip(a.nutab, b.nutab))
                failing = [
                    (x, y) for x in comp for y in comp
                    if tab[lat.join(x, y)] != lat.join(tab[x], tab[y])
                ]
                violation = adherence_violation(lat, tab)
                assert (violation is None) == (not failing), (lat, tab)
                if failing:
                    broken += 1
                    assert violation[0] == "adherence.additive"
                    x, y = (label[s] for s in violation[1].split("'")[1:4:2])
                    assert (x, y) in failing, (lat, tab, violation)
        assert broken > 100

    def test_infimum_check_equals_the_meet_over_complemented_elements_above(self):
        # the validator reads the value at the least complemented element
        # above; the definition takes the meet over all of them.  Tables are
        # every self-map up to 5 elements, and up to 8 elements every valid
        # table changed at one element that is not complemented.
        def tables(lat):
            if lat.n <= 5:
                yield from itertools.product(range(lat.n), repeat=lat.n)
                return
            comp = analyze(lat).complemented
            for ns in itertools.islice(enumerate_adherence_structures(lat, budget=10**9), 30):
                for l in range(lat.n):
                    if not comp >> l & 1:
                        for v in range(lat.n):
                            yield ns.nutab[:l] + (v,) + ns.nutab[l + 1:]

        checked = 0
        for lat in small_carriers(8):
            comp = analyze(lat).complemented
            for tab in tables(lat):
                violation = adherence_violation(lat, tab)
                if violation is not None and violation[0] != "adherence.infimum":
                    continue
                literal = all(
                    tab[l] == lat.meet_of(tab[c] for c in bits(lat.up[l] & comp))
                    for l in range(lat.n)
                )
                assert (violation is None) == literal, (lat, tab)
                checked += not literal
        assert checked > 100

    def test_infimum_determination_witness(self):
        # V5's only complemented elements are the bounds, so interior values
        # are forced to the top value
        lat = lattice_fixture("V5")
        tab = [lat.top] * lat.n
        tab[lat.bottom] = lat.bottom
        tab[lat.index("{a}")] = lat.index("{a}")
        violation = adherence_violation(lat, tuple(tab))
        assert violation is not None and violation[0] == "adherence.infimum"

    def test_constant_bottom_on_chain3_is_valid(self):
        lat = lattice_fixture("CHAIN3")
        assert adherence_violation(lat, (0,) * lat.n) is None

    def test_factory_raises_with_witness(self):
        lat = lattice_fixture("CHAIN2")
        with pytest.raises(AxiomViolation):
            adherence_structure(lat, (lat.top, lat.top))


def atom_values_by_odometer(lat):
    """Every tuple of atom values, the first atom varying fastest."""
    values = [0] * len(complemented_atoms(lat))
    while True:
        yield tuple(values)
        i = 0
        while i < len(values) and values[i] == lat.n - 1:
            values[i] = 0
            i += 1
        if i == len(values):
            return
        values[i] += 1


class TestAtomParametrization:
    def test_enumeration_order_is_the_odometer(self):
        seen = 0
        for lat in list(small_coframes(6)) + [lattice_fixture("BOOL3")]:
            got = [ns.nutab for ns in enumerate_adherence_structures(lat)]
            expected = [
                adherence_from_atom_values(lat, values).nutab
                for values in atom_values_by_odometer(lat)
            ]
            assert got == expected, lat
            seen += len(got)
        assert seen > 600

    def test_enumeration_matches_axiom_scan_oracle(self):
        for name in ("CHAIN2", "CHAIN3", "BOOL2", "V5"):
            lat = lattice_fixture(name)
            enumerated = {ns.nutab for ns in enumerate_adherence_structures(lat)}
            assert enumerated == valid_tables_oracle(lat), name

    def test_every_structure_is_additive_on_all_pairs(self):
        # the validator checks additivity on complemented pairs only; on a
        # distributive carrier the other axioms force it on every pair
        carriers = list(small_coframes(6)) + [
            lattice_fixture(name) for name in ("BOOL3", "PX3", "V5")
        ]
        for lat in carriers:
            for ns in enumerate_adherence_structures(lat):
                nu = ns.nutab
                for x in range(lat.n):
                    for y in range(x, lat.n):
                        assert nu[lat.join(x, y)] == lat.join(nu[x], nu[y]), (ns, x, y)

    def test_count_is_carrier_size_to_the_atoms(self):
        for name in ("CHAIN3", "BOOL2", "PX3", "V5"):
            lat = lattice_fixture(name)
            k = len(complemented_atoms(lat))
            assert (
                sum(1 for _ in enumerate_adherence_structures(lat))
                == lat.n**k
            )

    def test_random_structures_are_valid_and_seeded(self):
        lat = lattice_fixture("PX3")
        a = random_adherence_structure(random.Random(9), lat)
        b = random_adherence_structure(random.Random(9), lat)
        assert a.nutab == b.nutab
        assert adherence_violation(lat, a.nutab) is None


class TestAdherenceOfConvergence:
    def test_sierpinski_raw_table(self):
        cs = convergence_fixture("SIERP_LIM")
        lat = cs.lattice
        raw = cs.adh0
        assert labels(lat, raw) == ["{}", "{0}", "{0,1}", "{0,1}"]

    def test_raw_of_bottom_is_bottom(self):
        rng = random.Random(2)
        for name in ("CHAIN3", "BOOL2", "V5"):
            lat = lattice_fixture(name)
            for _ in range(10):
                cs = random_convergence_structure(rng, lat)
                assert cs.adh0[lat.bottom] == lat.bottom

    def test_corrected_dominates_raw_and_agrees_on_complemented(self):
        rng = random.Random(13)
        for name in ("CHAIN3", "BOOL2", "PX3", "V5"):
            lat = lattice_fixture(name)
            comp = analyze(lat).complemented
            for _ in range(15):
                cs = random_convergence_structure(rng, lat)
                raw, corrected = cs.adh0, cs.adh
                for l in range(lat.n):
                    assert lat.leq(raw[l], corrected[l])
                    if comp >> l & 1:
                        assert raw[l] == corrected[l]

    def test_chain3_interior_value_comes_from_top(self):
        # the only complemented element above the middle is top
        lat = lattice_fixture("CHAIN3")
        rng = random.Random(4)
        for _ in range(10):
            cs = random_convergence_structure(rng, lat)
            assert cs.adh[lat.index("m")] == cs.adh0[lat.top]

    def test_adh_structure_of_sierpinski_is_its_closure(self):
        got = adh_structure_of(convergence_fixture("SIERP_LIM"))
        assert got.nutab == adherence_fixture("SIERP_ADH").nutab

    def test_adh_structure_of_discrete_is_void(self):
        lat = lattice_fixture("BOOL2")
        got = adh_structure_of(discrete_structure(lat))
        assert got.nutab == (lat.bottom,) * lat.n

    def test_adh_structure_of_chaotic(self):
        lat = lattice_fixture("BOOL2")
        got = adh_structure_of(chaotic_structure(lat))
        assert got.nutab == tuple(
            lat.bottom if l == lat.bottom else lat.top for l in range(lat.n)
        )


class TestClosedSets:
    def test_sierpinski_closed_family(self):
        cs = convergence_fixture("SIERP_LIM")
        report = closed_sets(cs)
        assert labels(cs.lattice, report.closed) == ["{}", "{0}", "{0,1}"]

    def test_px3_pretopology_closed_family(self):
        cs = convergence_fixture("PX3_PRETOP")
        report = closed_sets(cs)
        assert labels(cs.lattice, report.closed) == [
            "{}",
            "{3}",
            "{2,3}",
            "{1,2,3}",
        ]

    def test_discrete_everything_quasi_closed(self):
        lat = lattice_fixture("PX3")
        report = closed_sets(discrete_structure(lat))
        assert report.quasi_closed == tuple(range(lat.n))
        assert report.closed == tuple(bits(analyze(lat).complemented))

    def test_chaotic_only_bounds(self):
        lat = lattice_fixture("BOOL2")
        report = closed_sets(chaotic_structure(lat))
        assert report.quasi_closed == (lat.bottom, lat.top)
        assert report.closed == (lat.bottom, lat.top)

    def test_raw_and_corrected_adherence_agree_on_closedness(self):
        # a complemented element is closed under the raw adherence iff it is
        # under the corrected one; every structure of small_coframes(6)
        for lat in small_coframes(6):
            comp = analyze(lat).complemented
            for tab in enumerate_antitone_tables(lat):
                cs = ConvergenceStructure(lat, tab)
                corrected = tuple(
                    l for l in bits(comp) if lat.leq(cs.adh[l], l)
                )
                assert closed_sets(cs).closed == corrected, cs

    def test_adherence_structure_variant(self):
        ns = adherence_fixture("PX3_ADH")
        report = closed_sets(ns)
        assert labels(ns.lattice, report.closed) == [
            "{}",
            "{3}",
            "{2,3}",
            "{1,2,3}",
        ]

    def test_quasi_closed_is_join_and_meet_closed(self):
        # quasi-closed elements form a sub-meet-semilattice closed under
        # finite joins as well (subcoframe at finite scale)
        rng = random.Random(17)
        for name in ("BOOL2", "PX3", "V5"):
            lat = lattice_fixture(name)
            for _ in range(10):
                cs = random_convergence_structure(rng, lat)
                quasi = set(closed_sets(cs).quasi_closed)
                for a in quasi:
                    for b in quasi:
                        assert lat.meet(a, b) in quasi
                        assert lat.join(a, b) in quasi

    def test_closed_is_a_sublattice_with_bounds(self):
        rng = random.Random(29)
        for name in ("BOOL2", "PX3"):
            lat = lattice_fixture(name)
            for _ in range(10):
                cs = random_convergence_structure(rng, lat)
                closed = set(closed_sets(cs).closed)
                assert lat.bottom in closed and lat.top in closed
                for a in closed:
                    for b in closed:
                        assert lat.meet(a, b) in closed
                        assert lat.join(a, b) in closed


class TestLimOfNu:
    def test_sierpinski_closure_gives_sierpinski_convergence(self):
        got = lim_of_nu(adherence_fixture("SIERP_ADH"))
        assert got.limtab == convergence_fixture("SIERP_LIM").limtab

    def test_identity_closure_on_bool2(self):
        # the discrete-topology closure: singleton filters converge to their
        # point, the improper filter to top, the whole-carrier filter to
        # bottom (no point has only the full set as neighborhood)
        ns = adherence_fixture("IDENTITY_ADH_BOOL2")
        lat = ns.lattice
        assert labels(lat, lim_of_nu(ns).limtab) == ["{0,1}", "{0}", "{1}", "{}"]

    def test_output_is_classical_and_pretopological(self):
        for name in ("CHAIN3", "BOOL2", "V5"):
            lat = lattice_fixture(name)
            for ns in enumerate_adherence_structures(lat):
                got = classify(lim_of_nu(ns))
                assert got.classical and got.pretopological

    def test_one_element_carrier(self):
        lat = lattice_fixture("CHAIN1")
        ns = adherence_structure(lat, (0,))
        assert lim_of_nu(ns).limtab == (0,)


class TestGaloisLaws:
    def test_nu_monotone_gives_lim_monotone(self):
        lat = lattice_fixture("BOOL2")
        structures = list(enumerate_adherence_structures(lat))
        for a in structures:
            for b in structures:
                if all(lat.leq(x, y) for x, y in zip(a.nutab, b.nutab)):
                    la, lb = lim_of_nu(a), lim_of_nu(b)
                    assert all(
                        lat.leq(x, y) for x, y in zip(la.limtab, lb.limtab)
                    )

    def test_lim_monotone_gives_adh_monotone(self):
        lat = lattice_fixture("CHAIN3")
        structures = [
            ConvergenceStructure(lat, t) for t in enumerate_antitone_tables(lat)
        ]
        for a in structures:
            for b in structures:
                if all(lat.leq(x, y) for x, y in zip(a.limtab, b.limtab)):
                    na, nb = a.adh, b.adh
                    assert all(lat.leq(x, y) for x, y in zip(na, nb))

    def test_unit_and_counit_inequalities(self):
        # every structure refines the one induced by its adherence, and the
        # adherence induced by a closure's convergence sits below the closure
        rng = random.Random(41)
        for name in ("CHAIN3", "BOOL2", "PX3", "V5"):
            lat = lattice_fixture(name)
            for _ in range(25):
                cs = random_convergence_structure(rng, lat)
                back = lim_of_nu(adh_structure_of(cs))
                assert all(
                    lat.leq(cs.limtab[g], back.limtab[g]) for g in range(lat.n)
                )
                ns = random_adherence_structure(rng, lat)
                down = adh_structure_of(lim_of_nu(ns))
                assert all(
                    lat.leq(down.nutab[l], ns.nutab[l]) for l in range(lat.n)
                )

    def test_nu_roundtrip_is_identity_for_every_adherence_structure(self):
        for name in ("CHAIN2", "CHAIN3", "CHAIN4", "CHAIN5", "BOOL2", "V5"):
            lat = lattice_fixture(name)
            for ns in enumerate_adherence_structures(lat):
                assert adh_structure_of(lim_of_nu(ns)).nutab == ns.nutab, name

    def test_lim_roundtrip_is_identity_for_classical_pretopological(self):
        for name in ("CHAIN2", "CHAIN3", "CHAIN4", "CHAIN5", "BOOL2", "V5"):
            lat = lattice_fixture(name)
            for tab in enumerate_antitone_tables(lat):
                cs = ConvergenceStructure(lat, tab)
                got = classify(cs)
                if got.classical and got.pretopological:
                    back = lim_of_nu(adh_structure_of(cs))
                    assert back.limtab == cs.limtab, name

    def test_lim_roundtrip_fails_without_classicality(self):
        # frozen witness: a pretopological but non-classical structure whose
        # induced closure forgets the interior value
        cs = convergence_fixture("CHAIN3_PRETOP_GAP")
        lat = cs.lattice
        got = classify(cs)
        assert got.pretopological and not got.classical
        back = lim_of_nu(adh_structure_of(cs))
        assert back.limtab != cs.limtab
        assert lat.label(back.limtab[lat.top]) == "m"
        assert lat.label(cs.limtab[lat.top]) == "0"


class TestInducedAdherence:
    def test_induced_structure_satisfies_the_axioms(self):
        # every structure on the distributive carriers with at most five
        # elements
        for lat in small_carriers(5):
            for tab in enumerate_antitone_tables(lat):
                ns = adh_structure_of(ConvergenceStructure(lat, tab))
                assert adherence_violation(lat, ns.nutab) is None, ns


def coframe_endomorphisms(lat):
    return [
        LatticeMorphism(lat, lat, values, kind="coframe")
        for values in itertools.product(range(lat.n), repeat=lat.n)
        if _table_violation(lat, lat, values, "coframe") is None
    ]


class TestContinuity:
    def test_identity_is_continuous(self):
        ns = adherence_fixture("PX3_ADH")
        assert check_adh_continuity(identity_morphism(ns.lattice), ns, ns)

    def test_pointwise_comparison_gives_one_direction(self):
        lat = lattice_fixture("BOOL2")
        finer = adherence_fixture("VOID_ADH_BOOL2")
        coarser = adherence_fixture("IDENTITY_ADH_BOOL2")
        ident = identity_morphism(lat)
        assert check_adh_continuity(ident, coarser, finer)
        assert not check_adh_continuity(ident, finer, coarser)

    def test_matches_convergence_continuity_on_induced_structures(self):
        # the adherence-side check agrees with the filter-side check across
        # all coframe endomorphisms of the diamond
        lat = lattice_fixture("BOOL2")
        structures = list(enumerate_adherence_structures(lat))
        for phi in coframe_endomorphisms(lat):
            for src in structures:
                for tgt in structures:
                    lhs = check_adh_continuity(phi, src, tgt)
                    rhs = check_continuity(
                        phi, lim_of_nu(src), lim_of_nu(tgt)
                    ).continuous
                    assert lhs == rhs

    def test_adjoint_image_laws_for_continuous_maps(self):
        # along any continuous map, inverse images of adherences stay inside
        # adherences of inverse images (raw and corrected alike)
        lat = lattice_fixture("BOOL2")
        rng = random.Random(59)
        endos = coframe_endomorphisms(lat)
        for _ in range(15):
            src = random_convergence_structure(rng, lat)
            tgt = random_convergence_structure(rng, lat)
            for phi in endos:
                if not check_continuity(phi, src, tgt).continuous:
                    continue
                adj = left_adjoint(phi)
                raw_s, raw_t = src.adh0, tgt.adh0
                cor_s, cor_t = src.adh, tgt.adh
                for l in range(lat.n):
                    assert lat.leq(adj.values[raw_t[l]], raw_s[adj.values[l]])
                    assert lat.leq(adj.values[cor_t[l]], cor_s[adj.values[l]])

    def test_continuous_maps_send_closed_to_closed(self):
        lat = lattice_fixture("BOOL2")
        rng = random.Random(61)
        endos = coframe_endomorphisms(lat)
        for _ in range(15):
            src = random_convergence_structure(rng, lat)
            tgt = random_convergence_structure(rng, lat)
            if not check_continuity(identity_morphism(lat), src, tgt).continuous:
                continue
        for phi in endos:
            src = convergence_fixture("SIERP_LIM")
            tgt_tables = [discrete_structure(lat), chaotic_structure(lat)]
            for tgt in tgt_tables:
                if not check_continuity(phi, src, tgt).continuous:
                    continue
                closed_tgt = set(closed_sets(tgt).closed)
                for c in closed_sets(src).closed:
                    assert phi.values[c] in closed_tgt


def final_lift_adh_by_antichains(lattice, sink):
    """The final lift from its definition: at each element, the infimum over
    antichains of complemented elements joining above it of the joins of
    their contributions (a dominated family member only enlarges the join).
    Walks every antichain of the complemented part, a Dedekind number of
    them."""
    comp_elems = list(bits(analyze(lattice).complemented))
    contrib = {
        a: lattice.meet_of(
            phi.values[ns.nutab[left_adjoint(phi).values[a]]] for phi, ns in sink
        )
        for a in comp_elems
    }
    k = len(comp_elems)
    comparable = [
        sum(
            1 << j
            for j in range(k)
            if i != j
            and (
                lattice.leq(comp_elems[i], comp_elems[j])
                or lattice.leq(comp_elems[j], comp_elems[i])
            )
        )
        for i in range(k)
    ]
    best = [None] * lattice.n

    def walk(idx, family, blocked):
        if idx == k:
            j = lattice.join_of(family)
            term = lattice.join_of(contrib[a] for a in family)
            best[j] = term if best[j] is None else lattice.meet(best[j], term)
            return
        walk(idx + 1, family, blocked)
        if not blocked >> idx & 1:
            walk(idx + 1, family + [comp_elems[idx]], blocked | comparable[idx])

    walk(0, [], 0)
    return tuple(
        lattice.meet_of(best[j] for j in bits(lattice.up[l]) if best[j] is not None)
        for l in range(lattice.n)
    )


def small_sinks(lat):
    """The empty sink, every one-map sink of an endomorphism and an
    adherence structure, and every sink of two identities."""
    structures = list(enumerate_adherence_structures(lat))
    ident = identity_morphism(lat)
    sinks = [[]]
    sinks += [[(phi, ns)] for phi in coframe_endomorphisms(lat) for ns in structures]
    sinks += [[(ident, a), (ident, b)] for a in structures for b in structures]
    return sinks


class TestFinalLift:
    def test_empty_sink_is_chaotic_adherence(self):
        lat = lattice_fixture("BOOL2")
        out = final_lift_adh(lat, [])
        assert out.nutab == tuple(
            lat.bottom if l == lat.bottom else lat.top for l in range(lat.n)
        )

    def test_single_identity_returns_the_structure(self):
        ns = adherence_fixture("PX3_ADH")
        out = final_lift_adh(ns.lattice, [(identity_morphism(ns.lattice), ns)])
        assert out.nutab == ns.nutab
        # P(6): 7,828,354 antichains in its complemented part
        lat = powerset_lattice(tuple("abcdef"))
        rng = random.Random(61)
        for _ in range(5):
            ns = random_adherence_structure(rng, lat)
            assert final_lift_adh(lat, [(identity_morphism(lat), ns)]).nutab == ns.nutab

    def test_two_identities_meet_at_atoms_then_extend_additively(self):
        # the pointwise meet of two additive maps need not be additive, so
        # the lift meets the tables at complemented atoms and rebuilds joins
        lat = lattice_fixture("BOOL2")
        rng = random.Random(67)
        atoms = complemented_atoms(lat)
        for _ in range(15):
            a = random_adherence_structure(rng, lat)
            b = random_adherence_structure(rng, lat)
            out = final_lift_adh(
                lat, [(identity_morphism(lat), a), (identity_morphism(lat), b)]
            )
            comp = analyze(lat).complemented
            for c in bits(comp):
                expected = lat.join_of(
                    lat.meet(a.nutab[p], b.nutab[p])
                    for p in atoms
                    if lat.leq(p, c)
                )
                assert out.nutab[c] == expected

    def test_antichain_path_matches_full_subset_oracle(self):
        # oracle: infimum over every subset family of complemented elements
        # whose join dominates the element
        two = lattice_fixture("CHAIN2")
        target = lattice_fixture("BOOL2")
        phi = LatticeMorphism(
            two, target, (target.bottom, target.top), kind="coframe"
        )
        adj = left_adjoint(phi)
        comp_elems = list(bits(analyze(target).complemented))
        rng = random.Random(71)
        for _ in range(20):
            ns = random_adherence_structure(rng, two)
            out = final_lift_adh(target, [(phi, ns)])
            assert out.nutab == final_lift_adh_by_antichains(target, [(phi, ns)])
            contrib = {
                a: phi.values[ns.nutab[adj.values[a]]] for a in comp_elems
            }
            for l in range(target.n):
                best = []
                for k in range(len(comp_elems) + 1):
                    for fam in itertools.combinations(comp_elems, k):
                        if target.leq(l, target.join_of(fam)):
                            best.append(
                                target.join_of(contrib[a] for a in fam)
                            )
                assert out.nutab[l] == target.meet_of(best)

    def test_every_lift_satisfies_the_axioms(self):
        # on each distributive carrier with at most five elements
        for lat in small_carriers(5):
            for sink in small_sinks(lat):
                lifted = final_lift_adh(lat, sink)
                assert adherence_violation(lat, lifted.nutab) is None, sink

    def test_closed_form_equals_antichain_lift(self):
        # the small sinks, and random sinks of two identities on carriers
        # whose complemented part has up to 16 elements
        sinks = [(lat, sink) for lat in small_carriers(5) for sink in small_sinks(lat)]
        rng = random.Random(73)
        for name in ("BOOL3", "PX3", "BOOL4"):
            lat = lattice_fixture(name)
            ident = identity_morphism(lat)
            sinks += [
                (lat, [(ident, random_adherence_structure(rng, lat)) for _ in range(2)])
                for _ in range(20)
            ]
        for lat, sink in sinks:
            assert final_lift_adh(lat, sink).nutab == final_lift_adh_by_antichains(
                lat, sink
            ), sink

    def test_sink_maps_continuous_and_lift_is_coarsest(self):
        two = lattice_fixture("CHAIN2")
        target = lattice_fixture("BOOL2")
        phi = LatticeMorphism(
            two, target, (target.bottom, target.top), kind="coframe"
        )
        for ns in enumerate_adherence_structures(two):
            lifted = final_lift_adh(target, [(phi, ns)])
            assert check_adh_continuity(phi, ns, lifted)
            for other in enumerate_adherence_structures(target):
                if check_adh_continuity(phi, ns, other):
                    assert all(
                        target.leq(other.nutab[l], lifted.nutab[l])
                        for l in range(target.n)
                    )
