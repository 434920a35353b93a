"""Finite spaces, the powerset/point passage, and the space-level theory."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from coframes import (
    AxiomViolation,
    BudgetExceeded,
    EngineError,
    FiniteAdherenceSpace,
    FiniteConvergenceSpace,
    FiniteTopologicalSpace,
    LatticeMismatch,
    NotAMorphism,
    NotPretopological,
    P_map,
    P_space,
    SpaceMap,
    UnknownKind,
    UnknownLabel,
    adherence_continuous,
    all_point_maps,
    bullet,
    check_continuity,
    classify,
    classify_space,
    convergence_space,
    enumerate_spaces,
    enumerate_topologies,
    epsilon,
    eta,
    is_continuous,
    is_isomorphism,
    kow,
    lim_of_C,
    modify_space,
    phi_dagger,
    points,
    pt_adh,
    pt_map,
    pt_space,
    pt_top,
    s_infinity,
    space_lattice,
    space_map,
    to_adherence,
    to_pretop,
    top_space_convergence,
    topological_modification,
)
from coframes.fixtures import (
    adherence_fixture,
    chaotic_structure,
    convergence_fixture,
    discrete_structure,
    lattice_fixture,
    random_convergence_structure,
    space_fixture,
    space_fixture_names,
    topology_fixture,
    topology_fixture_names,
)
from coframes.filters import Filter
from coframes.adherence import (
    enumerate_adherence_structures,
    lim_of_nu,
    random_adherence_structure,
)
from coframes.convergence import ConvergenceStructure
from coframes.fixtures import (
    convergence_fixture_names,
    enumerate_antitone_tables,
    lattice_fixture_names,
)
from coframes.lattice import (
    LatticeMorphism,
    analyze,
    bits,
    identity_morphism,
    left_adjoint,
    morphism_violation,
    powerset_lattice,
    subset_mask,
)
from coframes.search import small_coframes
from coframes.topology import sublocale_lattice, topological_structure


def small_carriers():
    """The distributive carriers with at most five elements."""
    fixtures = [lattice_fixture(name) for name in lattice_fixture_names()]
    return list(small_coframes(5)) + [
        lat for lat in fixtures if lat.n <= 5 and analyze(lat).distributive
    ]


def structure_corpus():
    """Every structure of ``small_coframes(5)`` and every fixture."""
    return [
        ConvergenceStructure(lat, t)
        for lat in small_coframes(5)
        for t in enumerate_antitone_tables(lat)
    ] + [convergence_fixture(name) for name in convergence_fixture_names()]


def small_spaces():
    """Every convergence space on at most two points."""
    return [sp for k in range(3) for sp in enumerate_spaces(("a", "b")[:k])]


def is_set_lattice_by_pairs(family):
    """The all-pairs scan that validated closed families: every union and
    intersection of two members is a member (the oracle for the check
    through the powerset topology)."""
    return all(a | b in family and a & b in family for a in family for b in family)


def top_space_convergence_by_loop(tsp):
    """The closed-set loop that computed a topological space's convergence:
    the improper filter converges everywhere, every other filter to the
    intersection of the closed sets it meets."""
    full = (1 << tsp.n_points) - 1
    out = [full]
    for a in range(1, 1 << tsp.n_points):
        lim = full
        for c in tsp.closed:
            if c & a:
                lim &= c
        out.append(lim)
    return tuple(out)


def is_continuous_by_loop(f):
    """The per-subset loop that checked continuity: each subset's image and
    its limit set's image rebuilt point by point, O(2^k · k)."""
    for a in range(1 << f.source.n_points):
        if f.image_mask(f.source.limtab[a]) & ~f.target.limtab[f.image_mask(a)]:
            return False
    return True


def adherence_continuous_by_loop(values, source, target):
    """The per-subset loop that checked closure continuity: each subset's
    image and its closure's image rebuilt point by point."""
    for a in range(1 << source.n_points):
        img_of_closure = 0
        for i in bits(source.adhtab[a]):
            img_of_closure |= 1 << values[i]
        img = 0
        for i in bits(a):
            img |= 1 << values[i]
        if img_of_closure & ~target.adhtab[img]:
            return False
    return True


def closure_violation_by_loop(adhtab):
    """The grounded and additive checks on a closure table of in-range
    entries as first written, each subset's union of singleton closures
    rebuilt point by point: the first ``(axiom, witness)``, or None."""
    if adhtab[0] != 0:
        return "closure.grounded", "closure of the empty set must be empty"
    for a in range(len(adhtab)):
        expected = 0
        for x in bits(a):
            expected |= adhtab[1 << x]
        if adhtab[a] != expected:
            return "closure.additive", f"closure of {a:b} is not the union of its singletons'"
    return None


def preimages_by_loop(f):
    """The preimage table of ``P_map``, one :meth:`SpaceMap.preimage_mask`
    per subset of the target's points."""
    return tuple(f.preimage_mask(b) for b in range(1 << f.target.n_points))


def pullback_by_definition(cs, a):
    """Generator of the pulled-back filter by definition: the infimum of the
    elements whose point sets contain the point subset ``a``."""
    lat = cs.lattice
    return lat.meet_of(l for l in range(lat.n) if bullet(cs, l) & a == a)


class TestSpaceValidation:
    def test_point_axiom_witness(self):
        with pytest.raises(AxiomViolation) as err:
            convergence_space(("a", "b"), (0b11, 0b10, 0b10, 0b00))
        assert err.value.axiom == "space.point"

    def test_monotonicity_witness(self):
        with pytest.raises(AxiomViolation) as err:
            convergence_space(("a", "b"), (0b01, 0b01, 0b11, 0b00))
        assert err.value.axiom == "space.monotone"

    def test_table_length(self):
        with pytest.raises(AxiomViolation):
            convergence_space(("a",), (1,))

    def test_duplicate_labels(self):
        with pytest.raises(AxiomViolation):
            convergence_space(("a", "a"), (0b11, 0b01, 0b10, 0b00))

    def test_every_space_type_checks_its_point_labels(self):
        # duplicate or empty labels are refused on construction, before the
        # table is read, not later when a lattice is built from them
        for points in (("a", "a"), ("", "b")):
            with pytest.raises(AxiomViolation) as err:
                FiniteConvergenceSpace(points, (0b11, 0b01, 0b10, 0b11))
            assert err.value.axiom == "space.points"
            with pytest.raises(AxiomViolation) as err:
                FiniteAdherenceSpace(points, (0, 1, 2, 3))
            assert err.value.axiom == "space.points"
            with pytest.raises(AxiomViolation) as err:
                FiniteTopologicalSpace(points, (0, 3))
            assert err.value.axiom == "space.points"

    def test_unknown_point_label(self):
        sp = space_fixture("SIERP_SPACE")
        with pytest.raises(UnknownLabel) as err:
            sp.point_index("nowhere")
        assert isinstance(err.value, KeyError) and isinstance(err.value, EngineError)

    def test_point_cap(self):
        # every space type checks the cap before looking at its table
        many = tuple(f"p{i}" for i in range(13))
        with pytest.raises(BudgetExceeded):
            convergence_space(many, ())
        with pytest.raises(BudgetExceeded):
            FiniteAdherenceSpace(many, ())
        with pytest.raises(BudgetExceeded):
            FiniteTopologicalSpace(many, ())

    def test_subset_labels_round_trip(self):
        sp = space_fixture("PX3_SPACE")
        for mask in range(1 << sp.n_points):
            assert sp.subset_mask(sp.subset_label(mask)) == mask
        # point labels may contain commas
        sp = convergence_space(("a,b", "c"), (3, 1, 2, 0))
        for mask in range(1 << sp.n_points):
            assert sp.subset_mask(sp.subset_label(mask)) == mask

    def test_fixture_corpus_validates(self):
        for name in space_fixture_names():
            space_fixture(name)


class TestSpaceMaps:
    def test_totality_checks(self):
        sierp = space_fixture("SIERP_SPACE")
        with pytest.raises(AxiomViolation):
            space_map(sierp, sierp, (0,))
        with pytest.raises(AxiomViolation):
            space_map(sierp, sierp, (0, 5))

    def test_identity_is_continuous(self):
        for name in space_fixture_names():
            sp = space_fixture(name)
            assert is_continuous(space_map(sp, sp, tuple(range(sp.n_points))))

    def test_constant_maps_to_chaotic_are_continuous(self):
        chaotic = space_fixture("CHAOTIC2_SPACE")
        for name in ("SIERP_SPACE", "DISCRETE2_SPACE", "NONLIMIT2_SPACE"):
            sp = space_fixture(name)
            assert is_continuous(space_map(sp, chaotic, (0,) * sp.n_points))

    def test_dense_point_collapse_is_discontinuous(self):
        # sending the dense point of the two-point space with one closed
        # point onto the closed point of the discrete space breaks
        # convergence of the dense point's singleton filter
        sierp = space_fixture("SIERP_SPACE")
        disc = space_fixture("DISCRETE2_SPACE")
        assert not is_continuous(space_map(sierp, disc, (0, 1)))
        assert is_continuous(space_map(disc, sierp, (0, 1)))


class TestPowersetStructure:
    def test_sierpinski_space_gives_sierpinski_structure(self):
        cs = P_space(space_fixture("SIERP_SPACE"))
        assert cs.limtab == convergence_fixture("SIERP_LIM").limtab
        assert cs.lattice is lattice_fixture("BOOL2")

    def test_one_point_space_converges_everywhere(self):
        cs = P_space(space_fixture("ONE_POINT_SPACE"))
        assert cs.limtab == (1, 1)

    def test_empty_space_gives_singleton_lattice(self):
        cs = P_space(space_fixture("EMPTY_SPACE"))
        assert cs.lattice.n == 1 and cs.limtab == (0,)

    def test_discrete_topology_table(self):
        cs = P_space(space_fixture("DISCRETE2_SPACE"))
        lat = cs.lattice
        assert [lat.label(v) for v in cs.limtab] == ["{0,1}", "{0}", "{1}", "{}"]

    def test_powerset_structures_are_classical(self):
        for name in space_fixture_names():
            sp = space_fixture(name)
            assert classify(P_space(sp)).classical

    def test_preimage_morphism_matches_continuity_both_ways(self):
        spaces = small_spaces()
        for src in spaces:
            for tgt in spaces:
                for f in all_point_maps(src, tgt):
                    phi = P_map(f)
                    assert morphism_violation(phi) is None
                    report = check_continuity(phi, P_space(tgt), P_space(src))
                    assert report.continuous == is_continuous(f)


class TestPointSets:
    def test_bullet_tables(self):
        cs = convergence_fixture("SIERP_LIM")
        lat = cs.lattice
        assert [bullet(cs, l) for l in range(lat.n)] == [0b00, 0b01, 0b10, 0b11]

    def test_no_points_means_empty_bullets(self):
        cs = discrete_structure(lattice_fixture("PX3"))
        assert all(bullet(cs, l) == 0 for l in range(cs.lattice.n))

    def test_point_sets_are_monotone(self):
        rng = random.Random(5)
        for name in ("CHAIN3", "BOOL2", "PX3"):
            lat = lattice_fixture(name)
            for _ in range(10):
                cs = random_convergence_structure(rng, lat)
                for a in range(lat.n):
                    for b in range(lat.n):
                        if lat.leq(a, b):
                            assert bullet(cs, a) & ~bullet(cs, b) == 0

    def test_bullet_preserves_joins_and_meets(self):
        rng = random.Random(7)
        for name in ("BOOL2", "PX3", "V5"):
            lat = lattice_fixture(name)
            for _ in range(10):
                cs = random_convergence_structure(rng, lat)
                assert bullet(cs, lat.bottom) == 0
                assert bullet(cs, lat.top) == (1 << len(points(cs))) - 1
                for a in range(lat.n):
                    for b in range(lat.n):
                        assert bullet(cs, lat.join(a, b)) == (
                            bullet(cs, a) | bullet(cs, b)
                        )
                        assert bullet(cs, lat.meet(a, b)) == (
                            bullet(cs, a) & bullet(cs, b)
                        )


def point_sets_by_loop(lat, pts):
    """Per element, the points below it, one ``leq`` per point."""
    return tuple(
        sum(1 << i for i, p in enumerate(pts) if lat.leq(p, l)) for l in range(lat.n)
    )


def pt_adh_by_loop(ns):
    lat = ns.lattice
    pts = [p for p in bits(analyze(lat).join_primes) if lat.leq(p, ns.nutab[p])]
    sets = point_sets_by_loop(lat, pts)
    return tuple(
        sets[ns.nutab[lat.join_of(pts[i] for i in bits(s))]] for s in range(1 << len(pts))
    )


def pt_top_by_loop(ts):
    lat = ts.lattice
    sets = point_sets_by_loop(lat, list(bits(analyze(lat).join_primes)))
    return tuple(sorted({sets[c] for c in bits(ts.closed)}))


class TestPointSetsAgainstTheLoops:
    """Point sets transposed from the points' up-rows equal the per-point
    ``leq`` loops they replaced in ``bullet``, ``epsilon``, ``pt_adh`` and
    ``pt_top``."""

    @staticmethod
    def carriers():
        return small_carriers() + [lattice_fixture("BOOL3"), powerset_lattice("abcd")]

    def test_structures(self):
        rng = random.Random(13)
        corpus = structure_corpus() + [
            random_convergence_structure(rng, lat) for lat in self.carriers() for _ in range(5)
        ]
        for cs in corpus:
            lat = cs.lattice
            expected = point_sets_by_loop(lat, cs.points)
            assert cs.point_sets == expected, cs
            assert tuple(bullet(cs, l) for l in range(lat.n)) == expected, cs
            assert epsilon(cs).values == expected, cs

    def test_point_spaces_of_adherence(self):
        rng = random.Random(19)
        corpus = [ns for lat in small_carriers() for ns in enumerate_adherence_structures(lat)]
        corpus += [
            random_adherence_structure(rng, lat) for lat in self.carriers() for _ in range(10)
        ]
        for ns in corpus:
            assert pt_adh(ns).adhtab == pt_adh_by_loop(ns), ns

    def test_point_spaces_of_topologies(self):
        corpus = [ts for lat in self.carriers() for ts in enumerate_topologies(lat)]
        corpus += [topology_fixture(name) for name in topology_fixture_names()]
        corpus += [
            sublocale_lattice(lattice_fixture(n)).canonical_topology() for n in ("CHAIN3", "V5")
        ]
        for ts in corpus:
            assert pt_top(ts).closed == pt_top_by_loop(ts), ts


class TestFilterPullback:
    def test_membership_is_an_up_set(self):
        # the elements whose point sets contain a given point subset are
        # exactly those above the pulled-back generator
        rng = random.Random(11)
        for name in ("BOOL2", "PX3"):
            lat = lattice_fixture(name)
            for _ in range(10):
                cs = random_convergence_structure(rng, lat)
                pts = points(cs)
                plat = powerset_lattice(tuple(lat.label(p) for p in pts))
                for a in range(1 << len(pts)):
                    gen = kow(cs, Filter(plat, a)).generator
                    for l in range(lat.n):
                        assert (bullet(cs, l) & a == a) == lat.leq(gen, l)

    def test_monotone_in_the_filter(self):
        cs = convergence_fixture("PX3_PRETOP")
        lat = cs.lattice
        pts = points(cs)
        plat = powerset_lattice(tuple(lat.label(p) for p in pts))
        for a in range(1 << len(pts)):
            for b in range(1 << len(pts)):
                if b & ~a == 0:
                    ga = kow(cs, Filter(plat, a)).generator
                    gb = kow(cs, Filter(plat, b)).generator
                    assert lat.leq(gb, ga)

    def test_point_filter_pulls_back_to_the_points_filter(self):
        cs = convergence_fixture("SIERP_LIM")
        plat = powerset_lattice(("{0}", "{1}"))
        assert kow(cs, Filter(plat, 0b01)).generator == cs.lattice.index("{0}")
        assert kow(cs, Filter(plat, 0b10)).generator == cs.lattice.index("{1}")

    def test_wrong_carrier_rejected(self):
        cs = convergence_fixture("SIERP_LIM")
        with pytest.raises(LatticeMismatch):
            kow(cs, Filter(lattice_fixture("CHAIN2"), 0))

    def test_generator_is_the_definitional_infimum(self):
        for cs in structure_corpus():
            plat = space_lattice(pt_space(cs))
            for a in range(1 << len(points(cs))):
                gen = kow(cs, Filter(plat, a)).generator
                assert gen == pullback_by_definition(cs, a), (cs, a)


class TestPointSpace:
    def test_sierpinski_round_trip(self):
        back = pt_space(convergence_fixture("SIERP_LIM"))
        assert back.points == ("{0}", "{1}")
        assert back.limtab == space_fixture("SIERP_SPACE").limtab

    def test_table_is_the_limit_of_the_definitional_pullback(self):
        for cs in structure_corpus():
            sp = pt_space(cs)
            assert sp.points == tuple(cs.lattice.label(p) for p in points(cs))
            for a in range(1 << sp.n_points):
                gen = pullback_by_definition(cs, a)
                assert sp.limtab[a] == bullet(cs, cs.limtab[gen]), (cs, a)

    def test_discrete_structures_have_empty_point_space(self):
        for name in ("CHAIN3", "BOOL2", "PX3"):
            sp = pt_space(discrete_structure(lattice_fixture(name)))
            assert sp.points == () and sp.limtab == (0,)

    def test_chaotic_point_space_converges_everywhere(self):
        sp = pt_space(chaotic_structure(lattice_fixture("BOOL2")))
        assert sp.points == ("{0}", "{1}")
        assert all(v == 0b11 for v in sp.limtab)

    def test_point_space_preserves_limit_and_pretopological(self):
        from coframes.fixtures import enumerate_antitone_tables
        from coframes import ConvergenceStructure

        for name in ("CHAIN3", "BOOL2"):
            lat = lattice_fixture(name)
            for tab in enumerate_antitone_tables(lat):
                cs = ConvergenceStructure(lat, tab)
                got = classify(cs)
                space_flags = classify_space(pt_space(cs))
                if got.limit:
                    assert space_flags.limit
                if got.pretopological:
                    assert space_flags.pretopological


class TestUnit:
    def test_unit_is_an_isomorphism_on_fixtures(self):
        for name in space_fixture_names():
            sp = space_fixture(name)
            assert is_isomorphism(eta(sp)), name

    def test_unit_is_an_isomorphism_on_all_two_point_spaces(self):
        for sp in enumerate_spaces(("a", "b")):
            e = eta(sp)
            assert is_isomorphism(e)
            back = e.target
            for a in range(1 << sp.n_points):
                assert e.image_mask(sp.limtab[a]) == back.limtab[e.image_mask(a)]

    def test_two_point_space_count(self):
        assert sum(1 for _ in enumerate_spaces(("a", "b"))) == 9
        assert sum(1 for _ in enumerate_spaces(("a",))) == 1


class TestCounit:
    def test_sierpinski_counit_is_the_identity_table(self):
        eps = epsilon(convergence_fixture("SIERP_LIM"))
        assert eps.values == (0, 1, 2, 3)

    def test_counit_is_continuous_and_final(self):
        from coframes.fixtures import enumerate_antitone_tables
        from coframes import ConvergenceStructure

        for name in ("CHAIN3", "BOOL2"):
            lat = lattice_fixture(name)
            for tab in enumerate_antitone_tables(lat):
                cs = ConvergenceStructure(lat, tab)
                eps = epsilon(cs)
                got = check_continuity(eps, cs, P_space(pt_space(cs)))
                assert got.continuous and got.final

    def test_counit_collapses_pointless_structures(self):
        cs = discrete_structure(lattice_fixture("BOOL2"))
        eps = epsilon(cs)
        assert eps.target.n == 1
        assert all(v == 0 for v in eps.values)


class TestTranspose:
    def test_transpose_of_identity_is_the_unit(self):
        for name in ("SIERP_SPACE", "DISCRETE2_SPACE", "CHAOTIC2_SPACE"):
            sp = space_fixture(name)
            ident = identity_morphism(space_lattice(sp))
            dag = phi_dagger(ident, P_space(sp), sp)
            assert dag.values == eta(sp).values

    def test_transpose_of_counit_is_the_identity(self):
        cs = convergence_fixture("PX3_PRETOP")
        dag = phi_dagger(epsilon(cs), cs, pt_space(cs))
        assert dag.values == tuple(range(len(points(cs))))

    def test_defining_equation_and_uniqueness(self):
        # among all point maps into the structure's point space, only the
        # transpose pulls point sets back to the morphism's values
        sierp = space_fixture("SIERP_SPACE")
        cs = convergence_fixture("SIERP_LIM")
        phi = epsilon(cs)
        dag = phi_dagger(phi, cs, pt_space(cs))
        back = pt_space(cs)
        matches = []
        for f in all_point_maps(pt_space(cs), back):
            if all(
                f.preimage_mask(bullet(cs, l)) == phi.values[l]
                for l in range(cs.lattice.n)
            ):
                matches.append(f.values)
        assert matches == [dag.values]

    def test_defining_equation_on_every_counit_and_unit(self):
        # P(transpose)(points of l) = phi(l), for the counit of every
        # structure in the corpus and the identity of every small space
        cases = [(epsilon(cs), cs, pt_space(cs)) for cs in structure_corpus()]
        for sp in small_spaces():
            cases.append((identity_morphism(space_lattice(sp)), P_space(sp), sp))
        for phi, cs, space in cases:
            dag = phi_dagger(phi, cs, space)
            for l in range(cs.lattice.n):
                assert dag.preimage_mask(bullet(cs, l)) == phi.values[l], (cs, l)

    def test_transpose_is_continuous(self):
        for name in ("SIERP_SPACE", "DISCRETE2_SPACE", "CHAOTIC2_SPACE"):
            sp = space_fixture(name)
            ident = identity_morphism(space_lattice(sp))
            assert is_continuous(phi_dagger(ident, P_space(sp), sp))

    def test_discontinuous_morphism_rejected(self):
        cs = discrete_structure(lattice_fixture("BOOL2"))
        sierp = space_fixture("SIERP_SPACE")
        phi = identity_morphism(lattice_fixture("BOOL2"))
        with pytest.raises(NotAMorphism):
            phi_dagger(phi, cs, sierp)

    def test_wrong_lattice_rejected(self):
        cs = convergence_fixture("SIERP_LIM")
        with pytest.raises(LatticeMismatch):
            phi_dagger(
                identity_morphism(lattice_fixture("CHAIN3")),
                cs,
                space_fixture("SIERP_SPACE"),
            )


class TestPointFunctorOnMaps:
    def test_point_map_of_preimage_recovers_the_map(self):
        # going space -> powerset structure -> point space recovers the
        # original map up to the unit relabeling
        spaces = [
            space_fixture(n) for n in ("SIERP_SPACE", "DISCRETE2_SPACE")
        ]
        for src in spaces:
            for tgt in spaces:
                for f in all_point_maps(src, tgt):
                    if not is_continuous(f):
                        continue
                    phi = P_map(f)
                    g = pt_map(phi, P_space(tgt), P_space(src))
                    e_src, e_tgt = eta(src), eta(tgt)
                    for x in range(src.n_points):
                        assert g.values[e_src.values[x]] == e_tgt.values[
                            f.values[x]
                        ]

    def test_point_maps_are_continuous(self):
        lat = lattice_fixture("BOOL2")
        rng = random.Random(23)
        structures = [random_convergence_structure(rng, lat) for _ in range(6)]
        for src in structures:
            for tgt in structures:
                report = check_continuity(identity_morphism(lat), src, tgt)
                if report.continuous:
                    # the left adjoint sends target points to source points
                    adj = left_adjoint(identity_morphism(lat))
                    assert {adj.values[p] for p in points(tgt)} <= set(points(src))
                    g = pt_map(identity_morphism(lat), src, tgt)
                    assert is_continuous(g)

    def test_discontinuous_morphism_rejected(self):
        with pytest.raises(NotAMorphism):
            pt_map(
                identity_morphism(lattice_fixture("BOOL2")),
                discrete_structure(lattice_fixture("BOOL2")),
                chaotic_structure(lattice_fixture("BOOL2")),
            )


class TestSpaceModifications:
    def test_topological_fixed_points(self):
        sierp = space_fixture("SIERP_SPACE")
        got = modify_space(sierp, "top")
        assert got.limtab == sierp.limtab

    def test_px3_topologization(self):
        sp = space_fixture("PX3_SPACE")
        got = modify_space(sp, "top")
        from coframes import closed_sets

        report = closed_sets(P_space(got))
        labels = [P_space(got).lattice.label(c) for c in report.closed]
        assert labels == ["{}", "{{3}}", "{{2},{3}}", "{{1},{2},{3}}"]

    def test_pretopological_spaces_are_fixed_by_pretop(self):
        for name in ("SIERP_SPACE", "DISCRETE2_SPACE", "CHAOTIC2_SPACE", "PX3_SPACE"):
            sp = space_fixture(name)
            assert classify_space(sp).pretopological
            assert modify_space(sp, "pretop").limtab == sp.limtab

    def test_modifications_coarsen_and_idempotent(self):
        for sp in enumerate_spaces(("a", "b")):
            for kind in ("lim", "pretop", "top"):
                out = modify_space(sp, kind)
                for a in range(1 << sp.n_points):
                    assert sp.limtab[a] & ~out.limtab[a] == 0
                assert modify_space(out, kind).limtab == out.limtab

    def test_nonlimit_fixture_changes_under_lim(self):
        sp = space_fixture("NONLIMIT2_SPACE")
        assert not classify_space(sp).limit
        out = modify_space(sp, "lim")
        assert classify_space(out).limit
        assert out.limtab == (0b11, 0b11, 0b11, 0b11)

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind) as err:
            modify_space(space_fixture("SIERP_SPACE"), "open")
        assert isinstance(err.value, ValueError) and isinstance(err.value, EngineError)

    def test_modification_squares_commute_for_lim_and_pretop(self):
        for name in (
            "SIERP_LIM",
            "PX3_PRETOP",
            "CHAIN3_NONCLASSICAL",
            "CHAIN3_PRETOP_GAP",
            "DISCRETE_BOOL2",
            "CHAOTIC_BOOL2",
        ):
            cs = convergence_fixture(name)
            for kind, lattice_kind in (("lim", "limit"), ("pretop", "pretop")):
                via_space = modify_space(pt_space(cs), kind)
                via_structure = pt_space(s_infinity(cs, lattice_kind))
                assert via_space.points == via_structure.points
                assert via_space.limtab == via_structure.limtab

    def test_topological_square_gains_points(self):
        # topologizing can create points out of nothing, so the two routes
        # around the square differ on the structure without points
        cs = discrete_structure(lattice_fixture("BOOL2"))
        via_space = modify_space(pt_space(cs), "top")
        via_structure = pt_space(topological_modification(cs))
        assert via_space.points == ()
        assert via_structure.points == ("{0}", "{1}")


class TestClosureSpaces:
    def test_sierpinski_closure_tables(self):
        adh = to_adherence(space_fixture("SIERP_SPACE"))
        assert adh.adhtab == (0b00, 0b01, 0b11, 0b11)

    def test_discrete_closure_is_identity(self):
        adh = to_adherence(space_fixture("DISCRETE2_SPACE"))
        assert adh.adhtab == (0b00, 0b01, 0b10, 0b11)

    def test_round_trips_are_identities(self):
        for sp in enumerate_spaces(("a", "b")):
            if not classify_space(sp).pretopological:
                continue
            adh = to_adherence(sp)
            assert to_pretop(adh).limtab == sp.limtab
        # the reverse direction ranges over every closure table that a
        # space can induce: each singleton's closure must contain its point
        k = 2
        for singles in itertools.product(range(1 << k), repeat=k):
            tab = []
            for a in range(1 << k):
                m = 0
                for x in bits(a):
                    m |= singles[x] | (1 << x)
                tab.append(m)
            adh = FiniteAdherenceSpace(("a", "b"), tuple(tab))
            assert to_adherence(to_pretop(adh)).adhtab == adh.adhtab

    def test_non_pretopological_rejected(self):
        with pytest.raises(NotPretopological):
            to_adherence(space_fixture("NONLIMIT2_SPACE"))

    def test_closure_validation(self):
        with pytest.raises(AxiomViolation) as err:
            FiniteAdherenceSpace(("a",), (1, 1))
        assert err.value.axiom == "closure.grounded"
        with pytest.raises(AxiomViolation) as err:
            FiniteAdherenceSpace(("a", "b"), (0, 1, 2, 0))
        assert err.value.axiom == "closure.additive"
        with pytest.raises(AxiomViolation) as err:
            FiniteAdherenceSpace(("a",), (0, 0b11))
        assert err.value.axiom == "closure.table"

    def test_point_map_must_be_total(self):
        discrete = FiniteAdherenceSpace(("a", "b"), (0, 1, 2, 3))
        assert adherence_continuous([1, 0], discrete, discrete)
        for values in ([5, 0], [-1, 0], [0], [0, 1, 1]):
            with pytest.raises(AxiomViolation) as err:
                adherence_continuous(values, discrete, discrete)
            assert err.value.axiom == "map.total", values

    def test_continuity_transfers_both_ways(self):
        pretops = [
            sp
            for sp in enumerate_spaces(("a", "b"))
            if classify_space(sp).pretopological
        ]
        for src in pretops:
            for tgt in pretops:
                a_src, a_tgt = to_adherence(src), to_adherence(tgt)
                for f in all_point_maps(src, tgt):
                    assert is_continuous(f) == adherence_continuous(
                        f.values, a_src, a_tgt
                    )


class TestSubsetTablesAgainstTheLoops:
    """Continuity, closure and preimage tables built by the doubling fold
    equal the per-subset loops they replaced."""

    @staticmethod
    def spaces():
        return small_spaces() + [space_fixture(name) for name in space_fixture_names()]

    @staticmethod
    def two_point_tables():
        return list(itertools.product(range(4), repeat=4))

    def test_continuity_and_preimages_on_every_map(self):
        spaces = self.spaces()
        verdicts = set()
        for src, tgt in itertools.product(spaces, repeat=2):
            for f in all_point_maps(src, tgt):
                verdicts.add(is_continuous(f))
                assert is_continuous(f) == is_continuous_by_loop(f), f
                assert P_map(f).values == preimages_by_loop(f), f
        assert verdicts == {True, False}

    def test_closure_tables_on_two_points(self):
        accepted = 0
        for tab in self.two_point_tables():
            try:
                FiniteAdherenceSpace(("a", "b"), tab)
            except AxiomViolation as err:
                got = (err.axiom, err.witness)
            else:
                got = None
                accepted += 1
            assert got == closure_violation_by_loop(tab), tab
        assert accepted == 16

    def test_closure_continuity_on_every_map(self):
        closures = [
            to_adherence(sp) for sp in self.spaces() if classify_space(sp).pretopological
        ] + [
            FiniteAdherenceSpace(("a", "b"), tab)
            for tab in self.two_point_tables()
            if closure_violation_by_loop(tab) is None
        ]
        verdicts = set()
        for src, tgt in itertools.product(closures, repeat=2):
            for values in itertools.product(range(tgt.n_points), repeat=src.n_points):
                got = adherence_continuous(values, src, tgt)
                verdicts.add(got)
                assert got == adherence_continuous_by_loop(values, src, tgt), (src, tgt, values)
        assert verdicts == {True, False}


class TestPointSpacesOfAdherence:
    def test_sierpinski_closure_points(self):
        got = pt_adh(adherence_fixture("SIERP_ADH"))
        assert got.points == ("{0}", "{1}")
        assert got.adhtab == (0b00, 0b01, 0b11, 0b11)

    def test_px3_closure_points(self):
        got = pt_adh(adherence_fixture("PX3_ADH"))
        assert got.points == ("{1}", "{2}", "{3}")
        direct = to_adherence(space_fixture("PX3_SPACE"))
        assert got.adhtab == direct.adhtab

    def test_void_closure_has_no_points(self):
        got = pt_adh(adherence_fixture("VOID_ADH_BOOL2"))
        assert got.points == () and got.adhtab == (0,)

    def test_is_the_closure_space_of_the_induced_point_convergence(self):
        for lat in small_carriers():
            for ns in enumerate_adherence_structures(lat):
                got = pt_adh(ns)
                via = to_adherence(pt_space(lim_of_nu(ns)))
                assert (got.points, got.adhtab) == (via.points, via.adhtab), ns


class TestPointSpacesOfTopologies:
    def test_two_point_chain_sublocales_give_sierpinski(self):
        sl = sublocale_lattice(lattice_fixture("CHAIN3"))
        tsp = pt_top(sl.canonical_topology())
        assert len(tsp.points) == 2
        assert tsp.closed == (0b00, 0b10, 0b11)

    def test_discrete_topology_gives_discrete_space(self):
        lat = lattice_fixture("BOOL2")
        tsp = pt_top(topological_structure(lat, range(lat.n)))
        assert tsp.points == ("{0}", "{1}")
        assert tsp.closed == (0b00, 0b01, 0b10, 0b11)

    def test_closed_family_validation(self):
        with pytest.raises(AxiomViolation):
            FiniteTopologicalSpace(("a", "b"), (0b00, 0b01))
        with pytest.raises(AxiomViolation):
            FiniteTopologicalSpace(("a", "b", "c"), (0b000, 0b001, 0b010, 0b111))
        with pytest.raises(AxiomViolation) as err:
            FiniteTopologicalSpace(("a", "b"), (0, 3, 3 | 1 << 40))
        assert err.value.axiom == "space.closed"

    def test_non_lattice_family_names_its_pair(self):
        with pytest.raises(AxiomViolation) as err:
            FiniteTopologicalSpace(("a", "b", "c"), (0b000, 0b001, 0b010, 0b111))
        assert err.value.axiom == "space.closed"
        assert "join of '{a}' and '{b}' is '{a,b}', outside the subset" in str(err.value)

    def test_agrees_with_the_pair_scan_and_the_closed_set_loop(self):
        # every family of subsets of at most four points: 2, 4, 16, 256 and
        # 65,536 families, of which the topologies number 1, 1, 4, 29 and 355
        # (OEIS A000798)
        pair = re.compile(
            r"(meet|join) of '([^']*)' and '([^']*)' is '([^']*)', outside the subset"
        )
        accepted = []
        for k in range(5):
            points = ("a", "b", "c", "d")[:k]
            full = (1 << k) - 1
            count = 0
            for chosen in range(1 << (1 << k)):
                closed = tuple(bits(chosen))
                family = set(closed)
                try:
                    tsp = FiniteTopologicalSpace(points, closed)
                except AxiomViolation as err:
                    assert err.axiom == "space.closed"
                    assert not (
                        0 in family and full in family and is_set_lattice_by_pairs(family)
                    ), closed
                    found = pair.search(err.witness)
                    if found is None:
                        assert 0 not in family or full not in family, closed
                        continue
                    word, x, y, r = found.groups()
                    x, y, r = (subset_mask(points, label) for label in (x, y, r))
                    assert x in family and y in family and r not in family, closed
                    assert r == (x | y if word == "join" else x & y), closed
                    continue
                assert is_set_lattice_by_pairs(family), closed
                count += 1
                twice = FiniteTopologicalSpace(points, closed + closed)
                for space in (tsp, twice):
                    got = top_space_convergence(space)
                    assert got.points == points
                    assert got.limtab == top_space_convergence_by_loop(space), closed
            accepted.append(count)
        assert accepted == [1, 1, 4, 29, 355]

    def test_point_space_convergence_matches_structure_convergence(self):
        for name in ("BOOL2", "PX3"):
            lat = lattice_fixture(name)
            for ts in enumerate_topologies(lat):
                via_space = top_space_convergence(pt_top(ts))
                via_structure = pt_space(lim_of_C(ts))
                assert via_space.points == via_structure.points
                assert via_space.limtab == via_structure.limtab

    def test_sierpinski_topology_round_trip(self):
        tsp = pt_top(topology_fixture("SIERP_TOP"))
        assert top_space_convergence(tsp).limtab == space_fixture(
            "SIERP_SPACE"
        ).limtab
