"""The atom folds against the row folds they replaced.

``adh0``, ``lim_of_nu``, ``lim_of_C`` and ``is_topological`` fold one value
per atom over the atoms below each element, and ``mesh`` on a filter reads
its generator's row.  The reference functions below fold over the whole
nonzero-meet row, taken from its definition (every element whose meet with
the given one is not bottom), and ``mesh_by_members`` scans every member.

The complemented atoms, the adherence built from atom values and the
additivity check read ``comp_atoms`` and fold over ``comp_joins``; the
``*_by_scan`` functions are the per-element scans they replaced.
"""

from __future__ import annotations

import functools
import itertools
import random

from coframes import (
    C_of_nu,
    adh_structure_of,
    analyze,
    enumerate_topologies,
    is_topological,
    lim_of_C,
    adherence_violation,
    lim_of_nu,
    topological_modification,
)
from coframes.adherence import (
    AdherenceStructure,
    adherence_from_atom_values,
    enumerate_adherence_structures,
    random_adherence_structure,
)
from coframes.convergence import ConvergenceStructure
from coframes.filters import UpSet, all_filters, enumerate_upset_masks, mesh
from coframes.fixtures import (
    adherence_fixture,
    adherence_fixture_names,
    convergence_fixture,
    convergence_fixture_names,
    enumerate_antitone_tables,
    lattice_fixture,
    lattice_fixture_names,
    random_antitone_table,
    topology_fixture,
    topology_fixture_names,
)
from coframes.lattice import _trusted, bits, powerset_lattice
from coframes.search import small_coframes


def rows_by_definition(lat):
    return tuple(
        sum(1 << y for y in range(lat.n) if lat.meet(x, y) != lat.bottom)
        for x in range(lat.n)
    )


def adh0_by_rows(cs):
    lat, tab = cs.lattice, cs.limtab
    rows = rows_by_definition(lat)
    return tuple(lat.join_of(tab[g] for g in bits(rows[l])) for l in range(lat.n))


def lim_of_nu_by_rows(ns):
    lat = ns.lattice
    comp = analyze(lat).complemented
    rows = rows_by_definition(lat)
    return tuple(
        lat.meet_of(ns.nutab[a] for a in bits(rows[g] & comp)) for g in range(lat.n)
    )


def lim_of_C_by_rows(ts):
    lat = ts.lattice
    rows = rows_by_definition(lat)
    return tuple(lat.meet_of(bits(rows[g] & ts.closed)) for g in range(lat.n))


def is_topological_by_rows(cs):
    lat, tab = cs.lattice, cs.limtab
    raw = adh0_by_rows(cs)
    comp = analyze(lat).complemented
    closed = sum(1 << l for l in bits(comp) if lat.leq(raw[l], l))
    rows = rows_by_definition(lat)
    return all(
        tab[g] == lat.meet_of(bits(rows[g] & closed)) for g in range(lat.n)
    )


def comp_atoms_by_scan(lat):
    comp = analyze(lat).complemented
    bottom = 1 << lat.bottom
    return tuple(a for a in bits(comp & ~bottom) if lat.down[a] & comp == bottom | 1 << a)


def atom_values_by_scan(lat, values):
    atoms = comp_atoms_by_scan(lat)
    on_comp = {
        c: lat.join_of(v for a, v in zip(atoms, values) if lat.leq(a, c))
        for c in bits(analyze(lat).complemented)
    }
    return tuple(on_comp[c] for c in lat.comp_above)


def additive_violation_by_scan(lat, nutab):
    """The additivity check as a scan of the complemented elements,
    smallest first, with the atoms below each one joined by ``join_of``."""
    atoms = sum(1 << a for a in comp_atoms_by_scan(lat))
    down = lat.down
    for j in sorted(bits(analyze(lat).complemented), key=lambda c: down[c].bit_count()):
        below = list(bits(down[j] & atoms))
        if nutab[j] != lat.join_of(nutab[a] for a in below):
            a, b = below[0], lat.join_of(below[1:])
            return (
                "adherence.additive",
                f"adherence of {lat.label(a)!r} v {lat.label(b)!r} is "
                f"{lat.label(nutab[j])!r}, expected "
                f"{lat.label(lat.join(nutab[a], nutab[b]))!r}",
            )
    return None


def random_monotone_table(rng, lat):
    """Bottom to bottom, and along the rank order each value drawn from the
    up-set of the join of the values at the lower covers."""
    tab = [lat.bottom] * lat.n
    for h in lat.rank_order():
        if h != lat.bottom:
            low = lat.join_of(tab[g] for g in lat.covers[h])
            tab[h] = rng.choice(list(bits(lat.up[low])))
    return tuple(tab)


def mesh_by_members(rows, a, b):
    bm = b.members
    return all(rows[x] & bm == bm for x in bits(a.members))


def powersets():
    """P(2) ... P(5)."""
    return [powerset_lattice([str(i) for i in range(k)]) for k in range(2, 6)]


@functools.lru_cache(maxsize=None)
def convergence_corpus():
    """Every structure on the ``small_coframes(6)`` carriers, the fixtures,
    and random antitone tables on P(2)...P(5) with their topological
    modifications (so that ``is_topological`` is also true there)."""
    corpus = [
        ConvergenceStructure(lat, t)
        for lat in small_coframes(6)
        for t in enumerate_antitone_tables(lat)
    ]
    corpus += [convergence_fixture(name) for name in convergence_fixture_names()]
    rng = random.Random(17)
    for lat in powersets():
        for _ in range(25):
            cs = ConvergenceStructure(lat, random_antitone_table(rng, lat))
            corpus += [cs, topological_modification(cs)]
    return tuple(corpus)


@functools.lru_cache(maxsize=None)
def adherence_corpus():
    corpus = [ns for lat in small_coframes(6) for ns in enumerate_adherence_structures(lat)]
    corpus += [adherence_fixture(name) for name in adherence_fixture_names()]
    corpus += [adh_structure_of(cs) for cs in convergence_corpus()[-200:]]
    rng = random.Random(29)
    corpus += [random_adherence_structure(rng, lat) for lat in powersets() for _ in range(25)]
    return tuple(corpus)


def topology_corpus():
    corpus = [ts for lat in small_coframes(6) for ts in enumerate_topologies(lat)]
    corpus += [topology_fixture(name) for name in topology_fixture_names()]
    corpus += [C_of_nu(ns) for ns in adherence_corpus()]
    return corpus


class TestAtomFolds:
    def test_corpus_reaches_both_answers_of_is_topological(self):
        answers = {is_topological_by_rows(cs) for cs in convergence_corpus()}
        assert answers == {False, True}

    def test_adh0_is_the_row_join(self):
        for cs in convergence_corpus():
            assert cs.adh0 == adh0_by_rows(cs), cs

    def test_is_topological_is_the_row_comparison(self):
        for cs in convergence_corpus():
            assert is_topological(cs) == is_topological_by_rows(cs), cs

    def test_lim_of_nu_is_the_row_meet(self):
        for ns in adherence_corpus():
            assert lim_of_nu(ns).limtab == lim_of_nu_by_rows(ns), ns

    def test_lim_of_nu_split_needs_no_monotone_table(self):
        # arbitrary tables, built past validation, fold the same way
        rng = random.Random(41)
        for lat in list(small_coframes(5)) + powersets()[:2]:
            for _ in range(20):
                tab = tuple(rng.randrange(lat.n) for _ in range(lat.n))
                ns = _trusted(AdherenceStructure, lattice=lat, nutab=tab)
                assert lim_of_nu(ns).limtab == lim_of_nu_by_rows(ns), ns

    def test_lim_of_C_is_the_row_meet(self):
        for ts in topology_corpus():
            assert lim_of_C(ts).limtab == lim_of_C_by_rows(ts), ts

    def test_mesh_is_the_member_scan(self):
        # every pair of filters and up-sets, on distributive carriers and on
        # the non-distributive M3 and N5
        carriers = list(small_coframes(6)) + [
            lattice_fixture(name) for name in lattice_fixture_names()
        ]
        assert {"M3", "N5"} <= {lat.name for lat in carriers}
        for lat in carriers:
            rows = rows_by_definition(lat)
            upsets = [UpSet(lat, m) for m in enumerate_upset_masks(lat)]
            for a, b in itertools.product(all_filters(lat) + upsets, repeat=2):
                assert mesh(a, b) == mesh_by_members(rows, a, b), (a, b)


def distributive_carriers():
    """``small_coframes(6)``, P(2) ... P(5) and the distributive fixtures."""
    fixtures = [lattice_fixture(name) for name in lattice_fixture_names()]
    return (
        list(small_coframes(6))
        + powersets()
        + [lat for lat in fixtures if analyze(lat).distributive]
    )


class TestComplementedPartAgainstTheScans:
    def test_comp_atoms_and_their_joins(self):
        carriers = distributive_carriers() + [lattice_fixture(n) for n in ("M3", "N5")]
        for lat in carriers:
            atoms = comp_atoms_by_scan(lat)
            assert lat.comp_atoms == atoms, lat
            joins = tuple(
                lat.join_of(atoms[i] for i in bits(s)) for s in range(1 << len(atoms))
            )
            assert lat.comp_joins == joins, lat
            if analyze(lat).distributive:
                assert sorted(joins) == list(bits(analyze(lat).complemented)), lat

    def test_atom_values_fold_to_the_scanned_table(self):
        rng = random.Random(31)
        checked = 0
        for lat in distributive_carriers():
            k = len(lat.comp_atoms)
            if lat.n**k <= 4096:
                draws = itertools.product(range(lat.n), repeat=k)
            else:
                draws = ([rng.randrange(lat.n) for _ in range(k)] for _ in range(200))
            for values in draws:
                ns = adherence_from_atom_values(lat, values)
                assert ns.nutab == atom_values_by_scan(lat, values), (lat, values)
                checked += 1
        assert checked > 2000

    def test_additivity_check_reports_the_scanned_witness(self):
        # pointwise meets of two adherences are monotone, grounded and
        # infimum-determined, and often not additive; random monotone
        # grounded tables fail additivity at many elements at once, so the
        # smallest failing one must be the one reported
        structures = adherence_corpus()
        by_carrier = {}
        for ns in structures:
            by_carrier.setdefault(ns.lattice, []).append(ns.nutab)
        for lat in powersets():  # whose complemented atoms join out of index order
            by_carrier.setdefault(lat.dual, [])
        rng = random.Random(37)
        broken = 0
        for lat, tables in by_carrier.items():
            meets = (
                tuple(lat.meet(x, y) for x, y in zip(a, b))
                for a, b in itertools.product(tables[:12], tables[-12:])
            )
            monotone = (random_monotone_table(rng, lat) for _ in range(50))
            for tab in itertools.chain(meets, monotone):
                expected = additive_violation_by_scan(lat, tab)
                got = adherence_violation(lat, tab)
                if expected is None:
                    assert got is None or got[0] == "adherence.infimum", (lat, tab)
                else:
                    assert got == expected, (lat, tab)
                    broken += 1
        assert broken > 100
