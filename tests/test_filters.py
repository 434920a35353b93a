"""Filters, grills and complemented restrictions, against subset-scan oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coframes import AxiomViolation, LatticeMismatch, NotAMorphism, analyze, pseudocomplement
from coframes.filters import (
    Filter,
    UpSet,
    all_filters,
    enumerate_filter_masks,
    enumerate_upset_masks,
    grill,
    intersection,
    is_proper,
    mesh,
    preimage_filter,
    preimage_upset,
    refines,
    restrict_complemented,
)
from coframes.fixtures import lattice_fixture, random_downset_lattice
from coframes.lattice import LatticeMorphism, bits

SMALL = ("CHAIN1", "CHAIN2", "CHAIN3", "BOOL2", "PX3", "V5", "M3", "N5")


def upsets(lat):
    return [UpSet(lat, m) for m in enumerate_upset_masks(lat)]


class TestPrincipality:
    def test_every_filter_subset_is_principal(self):
        # oracle: scan all subsets for the filter axioms; they must be exactly
        # the principal up-sets, one per element
        for name in SMALL:
            lat = lattice_fixture(name)
            found = set(enumerate_filter_masks(lat))
            principal = {lat.up[g] for g in range(lat.n)}
            assert found == principal, name
            assert len(found) == lat.n, name

    def test_all_filters_matches_oracle(self):
        lat = lattice_fixture("V5")
        assert {f.members for f in all_filters(lat)} == set(
            enumerate_filter_masks(lat)
        )

    def test_seeded_random_lattices(self):
        rng = random.Random(42)
        for _ in range(25):
            lat = random_downset_lattice(rng)
            assert set(enumerate_filter_masks(lat)) == {
                lat.up[g] for g in range(lat.n)
            }


class TestFilterOps:
    def test_membership_and_properness(self):
        c3 = lattice_fixture("CHAIN3")
        f = Filter(c3, c3.index("m"))
        assert c3.index("1") in f and c3.index("0") not in f
        assert is_proper(f)
        assert not is_proper(Filter(c3, c3.bottom))  # the improper filter

    def test_intersection_is_set_intersection(self):
        for name in SMALL:
            lat = lattice_fixture(name)
            for f in all_filters(lat):
                for g in all_filters(lat):
                    assert intersection(f, g).members == f.members & g.members

    def test_refines_is_containment(self):
        for name in ("CHAIN3", "BOOL2", "M3"):
            lat = lattice_fixture(name)
            for f in all_filters(lat):
                for g in all_filters(lat):
                    assert refines(f, g) == (f.members & g.members == g.members)

    def test_carrier_mismatch_rejected(self):
        f = Filter(lattice_fixture("CHAIN2"), 0)
        g = Filter(lattice_fixture("CHAIN3"), 0)
        with pytest.raises(LatticeMismatch):
            intersection(f, g)

    def test_mesh_against_pair_scan(self):
        for name in SMALL:
            lat = lattice_fixture(name)
            for f in all_filters(lat):
                for g in all_filters(lat):
                    expected = all(
                        lat.meet(a, b) != lat.bottom
                        for a in bits(f.members)
                        for b in bits(g.members)
                    )
                    assert mesh(f, g) == expected, name

    def test_mesh_iff_join_of_generators_nonbottom(self):
        for name in SMALL:
            lat = lattice_fixture(name)
            for f in all_filters(lat):
                for g in all_filters(lat):
                    assert mesh(f, g) == (
                        lat.meet(f.generator, g.generator) != lat.bottom
                    )


class TestUpSets:
    def test_validation(self):
        c3 = lattice_fixture("CHAIN3")
        UpSet(c3, 0)  # empty is fine
        with pytest.raises(AxiomViolation):
            UpSet(c3, 1 << c3.index("m"))  # missing top above m

    def test_grill_values_on_bool2(self):
        b2 = lattice_fixture("BOOL2")
        g = grill(Filter(b2, b2.index("{0}")))
        assert {b2.label(i) for i in bits(g.members)} == {"{0}", "{0,1}"}
        assert grill(Filter(b2, b2.bottom)).members == 0
        everything_but_bottom = b2.full_mask ^ 1 << b2.bottom
        assert grill(Filter(b2, b2.top)).members == everything_but_bottom


class TestGrillLaws:
    def test_grill_is_upwards_closed(self):
        # UpSet construction validates upward closure, so this must not raise
        for name in SMALL:
            lat = lattice_fixture(name)
            for a in upsets(lat):
                grill(a)

    def test_grill_is_antitone(self):
        for name in SMALL:
            lat = lattice_fixture(name)
            for a in upsets(lat):
                for b in upsets(lat):
                    if a.members & b.members == a.members:
                        assert grill(b).members & grill(a).members == grill(b).members

    def test_mesh_iff_contained_in_grill(self):
        for name in SMALL:
            lat = lattice_fixture(name)
            for a in upsets(lat):
                for b in upsets(lat):
                    contained = a.members & grill(b).members == a.members
                    assert mesh(a, b) == contained, name

    def test_filter_proper_iff_self_grilled(self):
        for name in SMALL:
            lat = lattice_fixture(name)
            for f in all_filters(lat):
                gm = grill(f).members
                assert is_proper(f) == (f.members & gm == f.members)

    def test_filter_grill_prime_on_distributive(self):
        # sup in the grill implies some component in the grill
        for name in ("CHAIN3", "BOOL2", "PX3", "V5"):
            lat = lattice_fixture(name)
            for f in all_filters(lat):
                gm = grill(f).members
                for x in range(lat.n):
                    for y in range(lat.n):
                        if gm >> lat.join(x, y) & 1:
                            assert gm >> x & 1 or gm >> y & 1, name

    def test_filter_grill_prime_fails_on_m3(self):
        # the primeness law needs distributivity and genuinely fails here:
        # b ∨ c = 1 meets everything above a, but neither b nor c meets a
        m3 = lattice_fixture("M3")
        f = Filter(m3, m3.index("a"))
        gm = grill(f).members
        b, c = m3.index("b"), m3.index("c")
        assert gm >> m3.join(b, c) & 1
        assert not gm >> b & 1 and not gm >> c & 1

    def test_grill_via_pseudocomplement(self):
        # on a distributive carrier: l in grill(F) iff l* not in F
        for name in ("CHAIN3", "BOOL2", "PX3", "V5"):
            lat = lattice_fixture(name)
            for a in upsets(lat):
                gm = grill(a).members
                for l in range(lat.n):
                    star = pseudocomplement(lat, l)
                    assert bool(gm >> l & 1) == (not a.members >> star & 1), name


class TestComplementedRestriction:
    def test_examples(self):
        c3 = lattice_fixture("CHAIN3")
        assert restrict_complemented(Filter(c3, c3.index("m"))).generator == c3.top
        assert restrict_complemented(Filter(c3, c3.bottom)).generator == c3.bottom
        v5 = lattice_fixture("V5")
        assert restrict_complemented(Filter(v5, v5.index("{a}"))).generator == v5.top
        b2 = lattice_fixture("BOOL2")
        for f in all_filters(b2):
            assert restrict_complemented(f).generator == f.generator

    def test_same_complemented_members(self):
        for name in ("CHAIN3", "PX3", "V5", "CHAIN5"):
            lat = lattice_fixture(name)
            comp = analyze(lat).complemented
            for f in all_filters(lat):
                r = restrict_complemented(f)
                assert r.members & comp == f.members & comp
                # and it is the coarsest such filter
                for g in all_filters(lat):
                    if g.members & comp == f.members & comp:
                        assert refines(g, r)

    def test_grills_agree_on_complemented_members(self):
        # filters sharing complemented members have grills sharing them too
        for name in ("CHAIN3", "PX3", "V5"):
            lat = lattice_fixture(name)
            comp = analyze(lat).complemented
            for f in all_filters(lat):
                for g in all_filters(lat):
                    if f.members & comp == g.members & comp:
                        assert (
                            grill(f).members & comp == grill(g).members & comp
                        ), name


def _collapse_chain3_to_chain2():
    c3, c2 = lattice_fixture("CHAIN3"), lattice_fixture("CHAIN2")
    return LatticeMorphism(c3, c2, (0, c2.index("1"), c2.index("1")))


def _include_chain2_in_chain3():
    c2, c3 = lattice_fixture("CHAIN2"), lattice_fixture("CHAIN3")
    return LatticeMorphism(c2, c3, (c3.index("0"), c3.index("1")))


class TestPreimages:
    def test_preimage_filter_examples(self):
        inc = _include_chain2_in_chain3()
        c3 = inc.target
        pre = preimage_filter(inc, Filter(c3, c3.index("m")))
        assert inc.source.label(pre.generator) == "1"
        pre_top = preimage_filter(inc, Filter(c3, c3.index("0")))
        assert pre_top.generator == inc.source.bottom

    def test_preimage_membership(self):
        for phi in (_include_chain2_in_chain3(), _collapse_chain3_to_chain2()):
            for f in all_filters(phi.target):
                pre = preimage_filter(phi, f)
                for l in range(phi.source.n):
                    assert (l in pre) == (phi.values[l] in f)

    def test_preimages_need_a_morphism_of_their_kind(self):
        # a filter preimage needs infima preserved, an up-set preimage order
        c3, c2 = lattice_fixture("CHAIN3"), lattice_fixture("CHAIN2")
        monotone = LatticeMorphism(c3, c2, (0, 0, 1), kind="monotone")
        with pytest.raises(NotAMorphism):
            preimage_filter(monotone, Filter(c2, 1))
        assert preimage_upset(monotone, UpSet(c2, 0b10)).members == 0b100
        # a map that is not even monotone never reaches the preimage
        with pytest.raises(NotAMorphism, match="not monotone"):
            LatticeMorphism(c3, c2, (1, 0, 1), kind="monotone")

    def test_image_of_complemented_commutes_with_grills(self):
        # complemented elements keep complements under lattice maps into a
        # distributive target, and grills commute with preimages on them
        for phi in (_include_chain2_in_chain3(), _collapse_chain3_to_chain2()):
            src, tgt = phi.source, phi.target
            comp = analyze(src).complemented
            for a in bits(comp):
                img = phi.values[a]
                star = pseudocomplement(src, a)
                assert phi.values[star] == pseudocomplement(tgt, img)
            from coframes.filters import enumerate_upset_masks

            for m in enumerate_upset_masks(tgt):
                ups = UpSet(tgt, m)
                pre = preimage_upset(phi, ups)
                for a in bits(comp):
                    lhs = grill(pre).members >> a & 1
                    rhs = grill(ups).members >> phi.values[a] & 1
                    assert lhs == rhs


class TestRandomized:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_grill_laws_on_random_lattices(self, seed):
        lat = random_downset_lattice(random.Random(seed))
        filters = all_filters(lat)
        for f in filters:
            gm = grill(f).members
            # proper iff self-meshing
            assert is_proper(f) == (f.members & gm == f.members)
            # primeness (distributive carrier)
            for x in range(lat.n):
                for y in range(lat.n):
                    if gm >> lat.join(x, y) & 1:
                        assert gm >> x & 1 or gm >> y & 1
