"""Acceptance gate: eleven exact, property-based criteria at desk scale.

Every check is discrete equality or a lattice inequality — no tolerances.
Each criterion is one test that enforces its own wall-clock budget and
prints a single ``PASS criterion NN`` line on success; a failed assertion
anywhere inside is the FAIL line for that criterion.
"""

import itertools
import random
import time

import pytest

from coframes import (
    AdherenceStructure,
    ConvergenceStructure,
    LatticeMorphism,
    UpSet,
    adh_structure_of,
    adherence_continuous,
    all_filters,
    all_point_maps,
    analyze,
    check_adh_continuity,
    check_continuity,
    classify,
    classify_space,
    closed_sets,
    compose,
    enumerate_adherence_structures,
    enumerate_spaces,
    enumerate_topologies,
    epsilon,
    eta,
    final_lift,
    final_lift_adh,
    grill,
    is_continuous,
    is_isomorphism,
    is_proper,
    is_strong,
    is_topological,
    lim_of_C,
    lim_of_nu,
    mesh,
    morphism_violation,
    nu_of_C,
    C_of_nu,
    P_map,
    P_space,
    phi_dagger,
    points,
    pseudocomplement,
    pt_space,
    refines,
    restrict_complemented,
    s1,
    s_infinity,
    space_lattice,
    star,
    sublocale_counit,
    sublocale_lattice,
    sublocale_map,
    to_adherence,
    to_pretop,
    topological_modification,
    topological_structure,
    wedge_C,
    dualize,
)
from coframes.convergence import S1_KINDS
from coframes.filters import bits, enumerate_filter_masks, enumerate_upset_masks
from coframes.laws import star_extension_unique
from coframes.lattice import _table_violation
from coframes.documents import convergence_from_doc
from coframes.errors import NotDistributive
from coframes.fixtures import (
    adherence_fixture,
    convergence_fixture,
    convergence_fixture_names,
    discrete_structure,
    enumerate_antitone_tables,
    lattice_fixture,
    lattice_fixture_names,
    random_adherence_structure,
    random_convergence_structure,
    random_downset_lattice,
    space_fixture,
    topology_fixture,
)
from coframes.search import parse_conjecture, search_counterexample


def _pass(number: int, detail: str) -> None:
    print(f"PASS criterion {number:02d}: {detail}")


def _all_structures(lat):
    return [ConvergenceStructure(lat, t) for t in enumerate_antitone_tables(lat)]


def _upsets(lat):
    return [UpSet(lat, m) for m in enumerate_upset_masks(lat)]


def _pointwise_leq(lat, tab_a, tab_b):
    return all(lat.leq(x, y) for x, y in zip(tab_a, tab_b))


def _coframe_morphisms(src, tgt):
    return [
        LatticeMorphism(src, tgt, values, kind="coframe")
        for values in itertools.product(range(tgt.n), repeat=src.n)
        if _table_violation(src, tgt, values, "coframe") is None
    ]


# ---------------------------------------------------------------------------
# 1. every filter on a small carrier is principal


def test_criterion_01_every_filter_is_principal():
    checked = 0
    for name in lattice_fixture_names():
        lat = lattice_fixture(name)
        if lat.n > 10:
            continue
        start = time.perf_counter()
        masks = enumerate_filter_masks(lat)
        assert len(masks) == lat.n, name
        assert sorted(masks) == sorted(lat.up), name
        assert time.perf_counter() - start < 1.0, name
        checked += 1
    assert checked >= 10
    _pass(1, f"subset oracle found exactly |L| principal filters on {checked} carriers")


# ---------------------------------------------------------------------------
# 2. grill laws


def test_criterion_02_grill_laws():
    start = time.perf_counter()
    rng = random.Random(2)
    corpus = [lattice_fixture(n) for n in ("CHAIN2", "CHAIN3", "BOOL2", "PX3")]
    corpus += [random_downset_lattice(rng, max_elements=8) for _ in range(100)]
    checks = 0
    for lat in corpus:
        ups = _upsets(lat)
        filters = all_filters(lat)
        comp = analyze(lat).complemented
        for a in ups:
            ga = grill(a).members  # construction (1): grills are up-sets
            for l in range(lat.n):
                # membership via pseudocomplement
                assert bool(ga >> l & 1) == (
                    not a.members >> pseudocomplement(lat, l) & 1
                )
            for b in ups:
                gb = grill(b).members
                if a.members & b.members == a.members:  # (3) antitone
                    assert gb & ga == gb
                # (4) meshing is containment in the grill
                assert mesh(a, b) == (a.members & gb == a.members)
                checks += 1
        for f in filters:
            gf = grill(f).members
            # (5) proper exactly when self-grilled
            assert is_proper(f) == (f.members & gf == f.members)
            # (2) the grill of a filter is prime
            for x in range(lat.n):
                for y in range(lat.n):
                    if gf >> lat.join(x, y) & 1:
                        assert gf >> x & 1 or gf >> y & 1
            # restriction to complemented members and grill agreement
            r = restrict_complemented(f)
            assert r.members & comp == f.members & comp
            assert grill(r).members & comp == gf & comp
            for g in filters:
                if g.members & comp == f.members & comp:
                    assert refines(g, r)
                    assert grill(g).members & comp == gf & comp
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(2, f"grill laws held on {len(corpus)} carriers ({checks} checks, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. two-point ground truth


def test_criterion_03_sierpinski_ground_truth():
    space = space_fixture("SIERP_SPACE")
    cs = P_space(space)
    lat = cs.lattice
    one = lat.index("{1}")
    both, zero = lat.index("{0,1}"), lat.index("{0}")
    # the documented rule: everything when the filter contains {1}, else {0}
    expected = tuple(both if lat.leq(g, one) else zero for g in range(lat.n))
    assert cs.limtab == expected
    raw = cs.adh0
    want = {"{}": "{}", "{0}": "{0}", "{1}": "{0,1}", "{0,1}": "{0,1}"}
    assert {lat.label(l): lat.label(raw[l]) for l in range(lat.n)} == want
    report = closed_sets(cs)
    assert [lat.label(c) for c in report.closed] == ["{}", "{0}", "{0,1}"]
    _pass(3, "two-point space limits, raw adherence, and closed family all match")


# ---------------------------------------------------------------------------
# 4. the powerset/point-space adjunction


def test_criterion_04_powerset_point_adjunction():
    start = time.perf_counter()
    ladders = [(), ("0",), ("0", "1"), ("0", "1", "2")]
    spaces_by_size = [list(enumerate_spaces(labels)) for labels in ladders]
    assert [len(s) for s in spaces_by_size] == [1, 1, 9, 2744]

    # the unit is an isomorphism on every space with at most three points
    eta_count = 0
    for group in spaces_by_size:
        for sp in group:
            assert is_isomorphism(eta(sp))
            eta_count += 1

    # the counit is continuous and final
    eps_corpus = [convergence_fixture(n) for n in convergence_fixture_names()]
    eps_corpus += [P_space(sp) for group in spaces_by_size[:3] for sp in group]
    for cs in eps_corpus:
        eps = epsilon(cs)
        report = check_continuity(eps, cs, P_space(pt_space(cs)))
        assert report.continuous and report.final

    # transposes: defining equation and uniqueness, over every morphism into
    # a powerset structure of a space with at most two points
    small_spaces = [sp for group in spaces_by_size[:3] for sp in group]
    tiny_spaces = [sp for group in spaces_by_size[:2] for sp in group]
    transposes = 0
    for name in convergence_fixture_names():
        cs = convergence_fixture(name)
        space_pool = small_spaces if cs.lattice.n <= 4 else tiny_spaces
        back = pt_space(cs)
        eps = epsilon(cs)
        for sp in space_pool:
            plat = space_lattice(sp)
            target = P_space(sp)
            for phi in _coframe_morphisms(cs.lattice, plat):
                if not check_continuity(phi, cs, target).continuous:
                    continue
                psi = phi_dagger(phi, cs, sp)
                assert compose(P_map(psi), eps).values == phi.values
                for other in all_point_maps(sp, back):
                    if other.values == psi.values:
                        continue
                    assert compose(P_map(other), eps).values != phi.values
                transposes += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(
        4,
        f"unit iso on {eta_count} spaces, counit continuous+final, "
        f"{transposes} transposes unique ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 5. the Galois connection between convergence and adherence


def test_criterion_05_convergence_adherence_galois():
    start = time.perf_counter()
    rng = random.Random(5)
    fixture_lattices = []
    for name in convergence_fixture_names():
        lat = convergence_fixture(name).lattice
        if all(lat is not other for other in fixture_lattices):
            fixture_lattices.append(lat)
    random_checks = 0
    for lat in fixture_lattices:
        for _ in range(500):
            cs = random_convergence_structure(rng, lat)
            # (3) every structure is below the one induced by its adherence
            back = lim_of_nu(adh_structure_of(cs))
            assert _pointwise_leq(lat, cs.limtab, back.limtab)
            # (2) coarsening the structure coarsens the adherence
            other = random_convergence_structure(rng, lat)
            coarser = ConvergenceStructure(
                lat, tuple(lat.join(x, y) for x, y in zip(cs.limtab, other.limtab))
            )
            assert _pointwise_leq(
                lat, adh_structure_of(cs).nutab, adh_structure_of(coarser).nutab
            )
            ns = random_adherence_structure(rng, lat)
            # (4) the adherence of the induced structure sits below the input
            down = adh_structure_of(lim_of_nu(ns))
            assert _pointwise_leq(lat, down.nutab, ns.nutab)
            # (1) raising the closure raises the induced structure,
            # and induced structures are classical and pretopological
            ns2 = random_adherence_structure(rng, lat)
            raised = AdherenceStructure(
                lat, tuple(lat.join(x, y) for x, y in zip(ns.nutab, ns2.nutab))
            )
            induced, raised_induced = lim_of_nu(ns), lim_of_nu(raised)
            assert _pointwise_leq(lat, induced.limtab, raised_induced.limtab)
            got = classify(induced)
            assert got.classical and got.pretopological
            random_checks += 1

    # exact fixed-point equalities, exhaustively on small carriers
    nu_exact = lim_exact = 0
    small = [
        lattice_fixture(n)
        for n in lattice_fixture_names()
        if lattice_fixture(n).n <= 5 and analyze(lattice_fixture(n)).distributive
    ]
    for lat in small:
        for ns in enumerate_adherence_structures(lat):
            assert adh_structure_of(lim_of_nu(ns)).nutab == ns.nutab
            nu_exact += 1
        for cs in _all_structures(lat):
            got = classify(cs)
            if got.classical and got.pretopological:
                assert lim_of_nu(adh_structure_of(cs)).limtab == cs.limtab
                lim_exact += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(
        5,
        f"{random_checks} random galois checks; exact roundtrips on "
        f"{nu_exact} closures and {lim_exact} classical pretopologies ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 6. closure operators of topologies and the topological modification


def test_criterion_06_topologies_and_modification():
    start = time.perf_counter()
    # closure laws on every topology over four carriers
    for name in ("CHAIN3", "BOOL2", "PX3", "V5"):
        lat = lattice_fixture(name)
        for ts in enumerate_topologies(lat):
            nu = nu_of_C(ts).nutab
            for l in range(lat.n):
                assert lat.leq(l, nu[l])
                assert nu[nu[l]] == nu[l]
                for c in bits(ts.closed):
                    assert lat.leq(nu[l], c) == lat.leq(l, c)
            assert {l for l in range(lat.n) if nu[l] == l} == set(bits(ts.closed))
            # topology -> closure -> topology is the identity
            assert C_of_nu(nu_of_C(ts)).closed == ts.closed
            # induced convergence is topological with the same closed family
            cs = lim_of_C(ts)
            assert classify(cs).topological
            assert set(closed_sets(cs).closed) == set(bits(ts.closed))
            assert cs.limtab == lim_of_nu(nu_of_C(ts)).limtab

    # antitone correspondences between closed families and closures
    px3 = lattice_fixture("PX3")
    topos = list(enumerate_topologies(px3))
    for a in topos:
        for b in topos:
            if a.closed & b.closed == a.closed:
                na, nb = nu_of_C(a).nutab, nu_of_C(b).nutab
                assert _pointwise_leq(px3, nb, na)
    bool2 = lattice_fixture("BOOL2")
    closures = list(enumerate_adherence_structures(bool2))
    for a in closures:
        for b in closures:
            if _pointwise_leq(bool2, a.nutab, b.nutab):
                assert C_of_nu(b).closed & C_of_nu(a).closed == C_of_nu(b).closed
    for ns in closures:
        back = nu_of_C(C_of_nu(ns)).nutab
        assert _pointwise_leq(bool2, ns.nutab, back)

    # the modification coarsens, is idempotent, and is the finest
    # topological coarsening — exhaustively on every small carrier
    small = [
        lattice_fixture(n)
        for n in lattice_fixture_names()
        if lattice_fixture(n).n <= 5 and analyze(lattice_fixture(n)).distributive
    ]
    minimality = 0
    for lat in small:
        candidates = [lim_of_C(ts) for ts in enumerate_topologies(lat)]
        for cs in _all_structures(lat):
            mod = topological_modification(cs)
            assert _pointwise_leq(lat, cs.limtab, mod.limtab)
            assert topological_modification(mod).limtab == mod.limtab
            assert is_topological(mod)
            assert any(cand.limtab == mod.limtab for cand in candidates)
            for cand in candidates:
                if _pointwise_leq(lat, cs.limtab, cand.limtab):
                    assert _pointwise_leq(lat, mod.limtab, cand.limtab)
            minimality += 1

    # the frozen three-point counterexample and its modification
    cs = convergence_fixture("PX3_PRETOP")
    got = classify(cs)
    assert got.pretopological and not got.topological
    mod = topological_modification(cs)
    lat = cs.lattice
    assert [lat.label(c) for c in closed_sets(mod).closed] == [
        "{}",
        "{3}",
        "{2,3}",
        "{1,2,3}",
    ]
    assert mod.limtab == lim_of_C(topology_fixture("PX3_TOP")).limtab
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(
        6,
        f"closure laws, antitone galois, and modification minimality on "
        f"{minimality} structures ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 7. final lifts


def test_criterion_07_final_lifts():
    start = time.perf_counter()
    two = lattice_fixture("CHAIN2")
    three = lattice_fixture("CHAIN3")
    four = lattice_fixture("BOOL2")
    sink_shapes = [
        (two, three),
        (two, four),
        (three, four),
    ]
    lifted_count = 0
    for src, tgt in sink_shapes:
        morphisms = _coframe_morphisms(src, tgt)
        targets = _all_structures(tgt)
        for phi in morphisms:
            for cs in _all_structures(src):
                lifted = final_lift(tgt, [(phi, cs)])
                assert check_continuity(phi, cs, lifted).continuous
                for other in targets:
                    if check_continuity(phi, cs, other).continuous:
                        assert _pointwise_leq(tgt, other.limtab, lifted.limtab)
                lifted_count += 1
        # two-map sinks: universality against both legs at once
        for phi, psi in itertools.combinations(morphisms, 2):
            for cs in _all_structures(src)[:3]:
                for ds in _all_structures(src)[:3]:
                    lifted = final_lift(tgt, [(phi, cs), (psi, ds)])
                    assert check_continuity(phi, cs, lifted).continuous
                    assert check_continuity(psi, ds, lifted).continuous
                    for other in targets:
                        if (
                            check_continuity(phi, cs, other).continuous
                            and check_continuity(psi, ds, other).continuous
                        ):
                            assert _pointwise_leq(tgt, other.limtab, lifted.limtab)
                    lifted_count += 1

    # classicality is preserved by lifts
    rng = random.Random(7)
    preserved = 0
    for _ in range(60):
        a = random_convergence_structure(rng, four)
        b = random_convergence_structure(rng, four)
        if classify(a).classical and classify(b).classical:
            ident = LatticeMorphism(four, four, tuple(range(four.n)), kind="coframe")
            out = final_lift(four, [(ident, a), (ident, b)])
            assert classify(out).classical
            preserved += 1
    assert preserved > 0

    # adherence-side lifts: continuity plus the same universal property
    adh_lifts = 0
    for src, tgt in sink_shapes:
        targets = list(enumerate_adherence_structures(tgt))
        for phi in _coframe_morphisms(src, tgt):
            for ns in enumerate_adherence_structures(src):
                lifted = final_lift_adh(tgt, [(phi, ns)])
                assert check_adh_continuity(phi, ns, lifted)
                for other in targets:
                    if check_adh_continuity(phi, ns, other):
                        assert _pointwise_leq(tgt, other.nutab, lifted.nutab)
                adh_lifts += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(
        7,
        f"{lifted_count} convergence and {adh_lifts} adherence lifts are "
        f"continuous and universal ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 8. completion steps and their least fixed points


def test_criterion_08_completion_fixed_points():
    start = time.perf_counter()
    flag_of = {
        "limit": lambda c: c.limit,
        "strict": lambda c: c.strict,
        "strict_limit": lambda c: c.strict and c.limit,
        "pretop": lambda c: c.pretopological,
    }
    checked = 0
    for name in ("CHAIN2", "BOOL2"):
        lat = lattice_fixture(name)
        structures = _all_structures(lat)
        fixed = {
            kind: [cs for cs in structures if s1(cs, kind).limtab == cs.limtab]
            for kind in S1_KINDS
        }
        for cs in structures:
            got = classify(cs)
            for kind in S1_KINDS:
                # one step fixes the structure exactly when it is in the class
                is_fixed = s1(cs, kind).limtab == cs.limtab
                assert is_fixed == flag_of[kind](got), (name, kind)
                # s_infinity is the least fixed point above the input
                close = s_infinity(cs, kind)
                assert s1(close, kind).limtab == close.limtab
                assert _pointwise_leq(lat, cs.limtab, close.limtab)
                for other in fixed[kind]:
                    if _pointwise_leq(lat, cs.limtab, other.limtab):
                        assert _pointwise_leq(lat, close.limtab, other.limtab)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(
        8,
        f"fixed-point characterization and least-fixed-point minimality on "
        f"{checked} (structure, kind) pairs ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 9. pretopological spaces are closure spaces


def test_criterion_09_pretopological_closure_equivalence():
    start = time.perf_counter()
    ladders = [(), ("0",), ("0", "1"), ("0", "1", "2")]
    roundtrips = 0
    pretop_small = []
    for labels in ladders:
        for sp in enumerate_spaces(labels):
            if not classify_space(sp).pretopological:
                continue
            adh = to_adherence(sp)
            back = to_pretop(adh)
            assert back.points == sp.points and back.limtab == sp.limtab
            assert to_adherence(back).adhtab == adh.adhtab
            roundtrips += 1
            if len(labels) <= 2:
                pretop_small.append(sp)
    # exhaustive: 1 empty + 1 singleton + 4 two-point + 64 three-point
    assert roundtrips == 70

    map_checks = 0
    for sp_a in pretop_small:
        adh_a = to_adherence(sp_a)
        for sp_b in pretop_small:
            adh_b = to_adherence(sp_b)
            for f in all_point_maps(sp_a, sp_b):
                assert is_continuous(f) == adherence_continuous(
                    f.values, adh_a, adh_b
                )
                map_checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(
        9,
        f"{roundtrips} identity roundtrips and {map_checks} continuity "
        f"transfers ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 10. the carrier is a retract of its sublocale lattice


def test_criterion_10_sublocale_retract():
    start = time.perf_counter()
    counts = {"CHAIN2": 2, "CHAIN3": 4, "BOOL2": 4}
    for name, expected in counts.items():
        omega = lattice_fixture(name)
        sl = sublocale_lattice(omega)
        assert len(sl.masks) == expected, name
        # the closed embedding is an order-isomorphism onto the closed part
        c = sl.closed_embedding
        assert morphism_violation(c) is None
        assert len(set(c.values)) == omega.n
        assert set(c.values) == set(sl.closed_index)
        opp = c.source
        for u in range(omega.n):
            for v in range(omega.n):
                assert opp.leq(u, v) == sl.lattice.leq(c.values[u], c.values[v])
        # the sublocale coframe carries a strong canonical topology
        assert is_strong(sl.canonical_topology())

    # the four-element sublocale coframe of the three-chain is the square
    sl3 = sublocale_lattice(lattice_fixture("CHAIN3"))
    assert sorted(row.bit_count() for row in sl3.lattice.up) == [1, 2, 2, 4]
    assert analyze(sl3.lattice).distributive

    # extension through the closed embedding: validated closed form and
    # morphism laws (raising on any mismatch), and uniqueness by an
    # exhaustive scan over the tables agreeing on closed sublocales
    chain2 = lattice_fixture("CHAIN2")
    chain3 = lattice_fixture("CHAIN3")
    bool2 = lattice_fixture("BOOL2")
    star_cases = [
        (chain2, chain2, (0, 1)),
        (chain3, chain2, (0, 1, 1)),
        (bool2, bool2, tuple(range(bool2.n))),
    ]
    for omega, target, values in star_cases:
        sl = sublocale_lattice(omega)
        extension = star(sl, target, values)
        for u in range(omega.n):
            assert extension.values[sl.closed_index[u]] == values[u]
        assert star_extension_unique(sl, extension) == (True, "")

    # both triangle identities of the retraction, on every topology fixture
    triangles = 0
    for name in ("SIERP_TOP", "DISCRETE_TOP", "INDISCRETE_TOP", "PX3_TOP"):
        ts = topology_fixture(name)
        sl, collapse = sublocale_counit(ts)
        assert morphism_violation(collapse) is None
        wedge, mapping = wedge_C(ts)
        omega = dualize(wedge)
        # collapsing a closed sublocale returns its closed element
        for u in range(omega.n):
            assert collapse.values[sl.closed_index[u]] == mapping[u]
        # re-embedding the collapsed carrier and collapsing again is trivial
        canon = sl.canonical_topology()
        sl2, collapse2 = sublocale_counit(canon)
        _, mapping2 = wedge_C(canon)
        iso = [mapping2.index(sl.closed_index[u]) for u in range(omega.n)]
        roundtrip = compose(collapse2, sublocale_map(sl, sl2, iso))
        assert roundtrip.values == tuple(range(sl.lattice.n))
        assert compose(collapse, roundtrip).values == collapse.values
        triangles += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(
        10,
        f"sublocale counts 2/4/4, closed embeddings iso, extensions unique, "
        f"{triangles} retract triangles ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 11. negative fixtures and counterexample search


def test_criterion_11_negative_fixtures_and_search():
    start = time.perf_counter()
    for name in ("CHAIN2", "CHAIN3", "BOOL2", "PX3", "V5"):
        lat = lattice_fixture(name)
        d = discrete_structure(lat)
        assert points(d) == ()
        assert not classify(d).centered

    for name in ("M3", "N5"):
        bad = lattice_fixture(name)
        with pytest.raises(NotDistributive):
            ConvergenceStructure(bad, (bad.top,) * bad.n)
        with pytest.raises(NotDistributive):
            topological_structure(bad, [bad.bottom, bad.top])
        with pytest.raises(NotDistributive):
            sublocale_lattice(bad)

    from coframes.cli import main

    refuted = []
    for text in (
        "centered & pretopological => topological",
        "strict => centered",
    ):
        conjecture = parse_conjecture(text)
        result = search_counterexample(conjecture)
        assert result.outcome == "counterexample"
        doc = result.witness_document()
        rebuilt = convergence_from_doc(doc["structure"])
        assert conjecture.refuted_by(classify(rebuilt).flags())
        assert main(["search", "--conjecture", text]) == 1
        refuted.append(result.origin)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(
        11,
        f"discrete structures pointless and uncentered, non-distributive "
        f"carriers rejected, refuted via {refuted[0]} and {refuted[1]} "
        f"({elapsed:.1f}s)",
    )
