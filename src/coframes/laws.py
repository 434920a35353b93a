"""Named law suites over the built-in corpus plus seeded random structures.

Each suite re-checks a family of identities the library relies on and
reports violations with complete, re-checkable witness documents; a law is
handed the live witness objects, and their documents are built only when it
fails.  A law evaluation that raises is itself reported as a violation — a
green suite means every law was actually evaluated and held.
``inject_fault=True`` deliberately smuggles a corrupted member into the
corpus to prove the suite is capable of failing: a non-distributive
carrier, or a structure built by the trusted constructor
``lattice._trusted`` past the validation that every value class runs on
construction (see :func:`_injected`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from .adherence import (
    AdherenceStructure,
    adh_structure_of,
    adherence_from_atom_values,
    adherence_violation,
    closed_sets,
    complemented_atoms,
    lim_of_nu,
    random_adherence_structure,
)
from .convergence import (
    ConvergenceStructure,
    check_continuity,
    classify,
    points,
    s1,
    s_infinity,
)
from .documents import structure_to_doc
from .duality import (
    FiniteConvergenceSpace,
    P_map,
    all_point_maps,
    bullet,
    epsilon,
    eta,
    is_continuous,
    is_isomorphism,
    kow,
    pt_space,
    space_lattice,
)
from .errors import ConjectureError
from .filters import (
    Filter,
    all_filters,
    grill,
    is_proper,
    mesh,
    refines,
    restrict_complemented,
)
from .fixtures import (
    adherence_fixture_names,
    adherence_fixture,
    convergence_fixture,
    convergence_fixture_names,
    lattice_fixture,
    lattice_fixture_names,
    random_antitone_table,
    random_downset_lattice,
    space_fixture,
    space_fixture_names,
    topology_fixture,
    topology_fixture_names,
)
from .lattice import (
    FiniteLattice,
    LatticeMorphism,
    _trusted,
    analyze,
    bits,
    dualize,
    pseudocomplement,
)
from .topology import (
    C_of_nu,
    SublocaleLattice,
    TopologicalStructure,
    enumerate_topologies,
    lim_of_C,
    nu_of_C,
    sublocale_counit,
    sublocale_lattice,
    topological_modification,
)

__all__ = ["SuiteReport", "Violation", "run_all", "run_suite", "suite_names"]


@dataclass(frozen=True)
class Violation:
    suite: str
    law: str
    message: str
    witness: dict[str, Any]


@dataclass
class SuiteReport:
    suite: str
    checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def _law(
        self,
        law: str,
        witness: dict[str, Any],
        evaluate: Callable[[], tuple[bool, str]],
        verdicts: dict[tuple[str, Hashable], tuple[bool, str]] | None = None,
        key: Hashable = None,
    ) -> None:
        """Check one law on one corpus entry.  ``witness`` maps names to
        labels (strings) or live engine objects; a violation records it with
        every object replaced by its document (:func:`_doc`).

        ``verdicts`` is a table owned by the suite run, and ``key`` is
        everything the law reads of the entry: its carrier, or its carrier
        and table.  A repeated draw reuses the verdict of its carrier or
        structure, an "evaluation raised" verdict included, instead of
        evaluating the law again.  The report still lists one check per
        corpus entry, and a reused violation carries the entry's own
        witness."""
        self.checks += 1
        verdict = None if verdicts is None else verdicts.get((law, key))
        if verdict is None:
            try:
                verdict = evaluate()
            except Exception as err:  # a law that cannot be evaluated is broken
                verdict = False, f"evaluation raised {type(err).__name__}: {err}"
            if verdicts is not None:
                verdicts[law, key] = verdict
        ok, message = verdict
        if not ok:
            documented = {
                name: value if isinstance(value, str) else _doc(value)
                for name, value in witness.items()
            }
            self.violations.append(Violation(self.suite, law, message, documented))


def _injected(suite: str) -> tuple[str, Any]:
    """The origin and the corrupted member that a structure suite adds to its
    corpus under ``inject_fault``; each breaks an axiom of its class, so it
    is built past validation (the test suite checks that it would fail)."""
    chain3 = lattice_fixture("CHAIN3")
    if suite == "convergence":
        # non-antitone table whose joins strictly dominate the limit infima:
        # a completion fixed point that the classifier rejects
        return "injected-non-antitone", _trusted(
            ConvergenceStructure, lattice=chain3, limtab=(0, 0, 2)
        )
    if suite == "galois-adh":
        return "injected-non-monotone", _trusted(
            AdherenceStructure, lattice=chain3, nutab=(0, 2, 1)
        )
    if suite == "topology":
        lat = lattice_fixture("BOOL3")
        mask = sum(1 << lat.index(s) for s in ("{}", "{1,2}", "{2,3}", "{1,2,3}"))
        return "injected-non-meet-closed", _trusted(
            TopologicalStructure, lattice=lat, closed=mask
        )
    if suite == "kow":
        return "injected-point-axiom", _trusted(
            FiniteConvergenceSpace, points=("a", "b"), limtab=(0b11, 0b10, 0b10, 0b10)
        )
    raise ConjectureError(f"suite {suite!r} injects no structure")


def _doc(obj: Any) -> dict[str, Any]:
    try:
        return structure_to_doc(obj)
    except Exception:  # injected objects may not serialize cleanly
        return {"unserializable": repr(obj)}


# ---------------------------------------------------------------------------
# lattice suite


def _coframe_corpus(rng: random.Random, budget: int) -> list[tuple[str, FiniteLattice]]:
    corpus = [
        (name, lattice_fixture(name))
        for name in lattice_fixture_names()
        if name not in ("M3", "N5")
    ]
    carriers: dict = {}
    for i in range(max(budget // 20, 2)):
        corpus.append((f"random-{i}", random_downset_lattice(rng, carriers=carriers)))
    return corpus


def _distributive_by_triples(lat: FiniteLattice) -> bool:
    """The definition, x ∧ (y ∨ z) = (x ∧ y) ∨ (x ∧ z) for every triple: the
    oracle for the Birkhoff test in :func:`analyze`."""
    meet, join, n = lat.meet, lat.join, lat.n
    return all(
        meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def _suite_lattice(rng: random.Random, budget: int, inject: bool) -> SuiteReport:
    rep = SuiteReport("lattice")
    verdicts: dict = {}
    corpus = _coframe_corpus(rng, budget)
    if inject:
        corpus.append(("injected-M3", lattice_fixture("M3")))
    for origin, lat in corpus:
        witness = {"origin": origin, "lattice": lat}

        def distributive(lat=lat):
            fast, literal = analyze(lat).distributive, _distributive_by_triples(lat)
            if fast != literal:
                return False, f"analyze says distributive={fast}, the triple scan {literal}"
            return literal, "corpus lattice is not a coframe"

        rep._law("distributive", witness, distributive, verdicts, lat)
        rep._law(
            "dualize-involution",
            witness,
            lambda lat=lat: (
                dualize(dualize(lat)) is lat,
                "dualizing twice did not return the same carrier",
            ),
            verdicts,
            lat,
        )

        def complement_law(lat=lat):
            info = analyze(lat)
            for i in range(lat.n):
                c = info.complement[i]
                has = bool(info.complemented >> i & 1)
                if has != (c >= 0):
                    return False, f"complement table inconsistent at {lat.label(i)!r}"
                if has and (
                    lat.meet(i, c) != lat.bottom or lat.join(i, c) != lat.top
                ):
                    return False, f"{lat.label(i)!r} and {lat.label(c)!r} are not complements"
            return True, ""

        rep._law("complement-pairs", witness, complement_law, verdicts, lat)

        def prime_duality(lat=lat):
            op = dualize(lat)
            mine = {lat.label(p) for p in bits(analyze(lat).join_primes)}
            theirs = {op.label(p) for p in bits(analyze(op).meet_primes)}
            return mine == theirs, f"join primes {sorted(mine)} vs dual meet primes {sorted(theirs)}"

        rep._law("prime-duality", witness, prime_duality, verdicts, lat)
    return rep


# ---------------------------------------------------------------------------
# grill suite


def _grill_corpus(rng: random.Random, budget: int) -> list[tuple[str, FiniteLattice]]:
    corpus = [
        (name, lattice_fixture(name))
        for name in ("CHAIN2", "CHAIN3", "BOOL2", "PX3", "V5")
    ]
    carriers: dict = {}
    for i in range(budget):
        lat = random_downset_lattice(rng, max_elements=8, carriers=carriers)
        corpus.append((f"random-{i}", lat))
    return corpus


def _suite_grill(rng: random.Random, budget: int, inject: bool) -> SuiteReport:
    rep = SuiteReport("grill")
    verdicts: dict = {}
    corpus = _grill_corpus(rng, budget)
    if inject:
        corpus.append(("injected-M3", lattice_fixture("M3")))
    # grill cannot raise, so each filter's grill is computed once per
    # distinct carrier, here; filters[g] is generated by g, so grills[g] is
    # its grill
    per_carrier: dict[FiniteLattice, tuple[list[Filter], list[int]]] = {}
    for origin, lat in corpus:
        witness = {"origin": origin, "lattice": lat}
        if lat not in per_carrier:
            filters = all_filters(lat)
            per_carrier[lat] = filters, [grill(f).members for f in filters]
        filters, grills = per_carrier[lat]
        comp = analyze(lat).complemented

        def antitone(lat=lat, filters=filters, grills=grills):
            # a finer filter (more members) has a smaller grill
            for f, gf in zip(filters, grills):
                for g, gg in zip(filters, grills):
                    if refines(f, g) and gf & ~gg:
                        return False, (
                            f"finer filter ^{lat.label(f.generator)!r} has a "
                            f"larger grill than ^{lat.label(g.generator)!r}"
                        )
            return True, ""

        rep._law("grill-antitone", witness, antitone, verdicts, lat)

        def mesh_law(lat=lat, filters=filters, grills=grills):
            for f in filters:
                for g, gg in zip(filters, grills):
                    contained = f.members & ~gg == 0
                    if mesh(f, g) != contained:
                        return False, (
                            f"mesh(^{lat.label(f.generator)!r}, ^{lat.label(g.generator)!r})"
                            " disagrees with grill containment"
                        )
            return True, ""

        rep._law("grill-mesh", witness, mesh_law, verdicts, lat)

        def proper_law(lat=lat, filters=filters, grills=grills):
            for f, gf in zip(filters, grills):
                if is_proper(f) != (f.members & ~gf == 0):
                    return False, f"properness of ^{lat.label(f.generator)!r} disagrees with self-meshing"
            return True, ""

        rep._law("grill-proper", witness, proper_law, verdicts, lat)

        def prime_law(lat=lat, filters=filters, grills=grills):
            joins = [(a, b, lat.join(a, b)) for a in range(lat.n) for b in range(lat.n)]
            for f, gm in zip(filters, grills):
                for a, b, j in joins:
                    if gm >> j & 1 and not (gm >> a & 1 or gm >> b & 1):
                        return False, (
                            f"join {lat.label(j)!r} in the grill of "
                            f"^{lat.label(f.generator)!r} but neither part is"
                        )
            return True, ""

        rep._law("grill-prime", witness, prime_law, verdicts, lat)

        def pseudocomplement_law(lat=lat, filters=filters, grills=grills):
            # computed inside the evaluation: a carrier without
            # pseudocomplements makes it raise, which is a violation
            pcs = [pseudocomplement(lat, l) for l in range(lat.n)]
            for f, gm in zip(filters, grills):
                for l, pc in enumerate(pcs):
                    if bool(gm >> l & 1) != (pc not in f):
                        return False, (
                            f"{lat.label(l)!r} in grill iff its pseudocomplement "
                            f"outside ^{lat.label(f.generator)!r} fails"
                        )
            return True, ""

        rep._law("grill-pseudocomplement", witness, pseudocomplement_law, verdicts, lat)

        def complemented_agreement(lat=lat, filters=filters, grills=grills, comp=comp):
            for f, gf in zip(filters, grills):
                for g, gg in zip(filters, grills):
                    if f.members & comp == g.members & comp and gf & comp != gg & comp:
                        return False, (
                            f"^{lat.label(f.generator)!r} and ^{lat.label(g.generator)!r}"
                            " share complemented members but their grills do not"
                        )
            return True, ""

        rep._law("grill-complemented-agreement", witness, complemented_agreement, verdicts, lat)

        def restriction_law(lat=lat, filters=filters, grills=grills, comp=comp):
            for f, gf in zip(filters, grills):
                r = restrict_complemented(f)
                if f.members & comp != r.members & comp:
                    return False, f"restriction changed complemented members of ^{lat.label(f.generator)!r}"
                if gf & comp != grills[r.generator] & comp:
                    return False, f"restriction changed the complemented grill of ^{lat.label(f.generator)!r}"
            return True, ""

        rep._law("grill-restriction", witness, restriction_law, verdicts, lat)
    return rep


# ---------------------------------------------------------------------------
# convergence suite


_COMPLETION_KINDS = ("limit", "strict", "pretop")


def _convergence_corpus(
    rng: random.Random, budget: int, carriers: dict
) -> list[tuple[str, ConvergenceStructure]]:
    corpus = [
        (name, convergence_fixture(name)) for name in convergence_fixture_names()
    ]
    for i in range(budget):
        lat = random_downset_lattice(rng, max_elements=6, carriers=carriers)
        corpus.append(
            (f"random-{i}", ConvergenceStructure(lat, random_antitone_table(rng, lat)))
        )
    return corpus


def _suite_convergence(rng: random.Random, budget: int, inject: bool) -> SuiteReport:
    rep = SuiteReport("convergence")
    verdicts: dict = {}
    corpus = _convergence_corpus(rng, budget, {})
    if inject:
        corpus.append(_injected("convergence"))
    for origin, cs in corpus:
        witness = {"origin": origin, "structure": cs}
        lat = cs.lattice
        key = lat, cs.limtab

        def implications(cs=cs):
            flags = classify(cs)
            if flags.topological and not flags.pretopological:
                return False, "topological but not pretopological"
            return True, ""

        rep._law("classification-implications", witness, implications, verdicts, key)

        for kind in _COMPLETION_KINDS:
            def completion(cs=cs, kind=kind, lat=lat):
                once = s1(cs, kind)
                stable = s_infinity(cs, kind)
                for g in range(lat.n):
                    if not lat.leq(cs.limtab[g], once.limtab[g]):
                        return False, f"{kind} completion shrank the limit of ^{lat.label(g)!r}"
                if s1(stable, kind).limtab != stable.limtab:
                    return False, f"iterated {kind} completion is not a fixed point"
                return True, ""

            rep._law(f"completion-{kind}", witness, completion, verdicts, key)

        def fixed_points(cs=cs):
            flags = classify(cs)
            for kind, flag in (
                ("limit", flags.limit),
                ("strict", flags.strict),
                ("pretop", flags.pretopological),
            ):
                if (s_infinity(cs, kind).limtab == cs.limtab) != flag:
                    return False, f"being a {kind} fixed point disagrees with classification"
            return True, ""

        rep._law("completion-fixed-points", witness, fixed_points, verdicts, key)
    return rep


# ---------------------------------------------------------------------------
# adherence / convergence Galois suite


def _suite_galois_adh(rng: random.Random, budget: int, inject: bool) -> SuiteReport:
    rep = SuiteReport("galois-adh")
    verdicts: dict = {}
    carriers: dict = {}
    adh_corpus: list[tuple[str, AdherenceStructure]] = [
        (name, adherence_fixture(name)) for name in adherence_fixture_names()
    ]
    for i in range(budget):
        lat = random_downset_lattice(rng, max_elements=8, carriers=carriers)
        adh_corpus.append((f"random-nu-{i}", random_adherence_structure(rng, lat)))
    if inject:
        adh_corpus.append(_injected("galois-adh"))
    for origin, ns in adh_corpus:
        witness = {"origin": origin, "structure": ns}

        def nu_roundtrip(ns=ns):
            back = adh_structure_of(lim_of_nu(ns))
            return back.nutab == ns.nutab, (
                "adherence of the induced convergence differs from the original"
            )

        rep._law("nu-roundtrip", witness, nu_roundtrip, verdicts, (ns.lattice, ns.nutab))

    conv_corpus = _convergence_corpus(rng, budget, carriers)
    for origin, cs in conv_corpus:
        witness = {"origin": origin, "structure": cs}
        lat = cs.lattice
        key = lat, cs.limtab

        def lim_unit(cs=cs, lat=lat):
            back = lim_of_nu(adh_structure_of(cs))
            for g in range(lat.n):
                if not lat.leq(cs.limtab[g], back.limtab[g]):
                    return False, f"round trip shrank the limit of ^{lat.label(g)!r}"
            return True, ""

        rep._law("lim-unit", witness, lim_unit, verdicts, key)

        def lim_roundtrip(cs=cs):
            flags = classify(cs)
            equal = lim_of_nu(adh_structure_of(cs)).limtab == cs.limtab
            expected = flags.classical and flags.pretopological
            return equal == expected, (
                "round-trip equality disagrees with classical+pretopological"
            )

        rep._law("lim-roundtrip-classical-pretop", witness, lim_roundtrip, verdicts, key)

        def induced_axioms(cs=cs):
            violation = adherence_violation(cs.lattice, adh_structure_of(cs).nutab)
            return violation is None, f"the induced adherence breaks {violation}"

        rep._law("induced-adherence-axioms", witness, induced_axioms, verdicts, key)

    for i in range(max(budget // 4, 4)):
        lat = random_downset_lattice(rng, max_elements=6, carriers=carriers)
        a = random_adherence_structure(rng, lat)
        b = random_adherence_structure(rng, lat)
        # the pointwise meet of two adherences need not be additive; its
        # values at the complemented atoms give one below ``a``
        lo = adherence_from_atom_values(
            lat, [lat.meet(a.nutab[t], b.nutab[t]) for t in complemented_atoms(lat)]
        )
        witness = {
            "origin": f"monotone-pair-{i}",
            "smaller": lo,
            "larger": a,
        }

        def monotone(lo=lo, hi=a, lat=lat):
            small, big = lim_of_nu(lo), lim_of_nu(hi)
            for g in range(lat.n):
                if not lat.leq(small.limtab[g], big.limtab[g]):
                    return False, f"smaller adherence gave a larger limit at ^{lat.label(g)!r}"
            return True, ""

        rep._law(
            "monotone-nu-to-lim", witness, monotone, verdicts, (lat, lo.nutab, a.nutab)
        )
    return rep


# ---------------------------------------------------------------------------
# topology suite


def _suite_topology(rng: random.Random, budget: int, inject: bool) -> SuiteReport:
    rep = SuiteReport("topology")
    corpus: list[tuple[str, TopologicalStructure]] = [
        (name, topology_fixture(name)) for name in topology_fixture_names()
    ]
    for lat_name in ("BOOL2", "CHAIN3", "V5"):
        lat = lattice_fixture(lat_name)
        for i, ts in enumerate(enumerate_topologies(lat)):
            corpus.append((f"{lat_name}-topology-{i}", ts))
    if inject:
        corpus.append(_injected("topology"))
    for origin, ts in corpus:
        witness = {"origin": origin, "structure": ts}
        lat = ts.lattice

        def closure_laws(ts=ts, lat=lat):
            nu = nu_of_C(ts)
            if nu.nutab[lat.bottom] != lat.bottom:
                return False, "closure of bottom is not bottom"
            for l in range(lat.n):
                c = nu.nutab[l]
                if not lat.leq(l, c):
                    return False, f"closure is not inflationary at {lat.label(l)!r}"
                if nu.nutab[c] != c:
                    return False, f"closure is not idempotent at {lat.label(l)!r}"
            return True, ""

        rep._law("closure-laws", witness, closure_laws)

        def roundtrip(ts=ts):
            back = C_of_nu(nu_of_C(ts))
            return back.closed == ts.closed, "closed family changed under the round trip"

        rep._law("topology-roundtrip", witness, roundtrip)

        def convergence_closed(ts=ts):
            report = closed_sets(lim_of_C(ts))
            return tuple(report.closed) == tuple(sorted(bits(ts.closed))), (
                "closed sets of the induced convergence differ from the topology"
            )

        rep._law("closed-of-convergence", witness, convergence_closed)

    verdicts: dict = {}
    for origin, cs in _convergence_corpus(rng, max(budget // 4, 4), {}):
        witness = {"origin": origin, "structure": cs}
        lat = cs.lattice

        def modification(cs=cs, lat=lat):
            out = topological_modification(cs)
            for g in range(lat.n):
                if not lat.leq(cs.limtab[g], out.limtab[g]):
                    return False, f"modification shrank the limit of ^{lat.label(g)!r}"
            if topological_modification(out).limtab != out.limtab:
                return False, "modification is not idempotent"
            if not classify(out).topological:
                return False, "modification output is not topological"
            return True, ""

        rep._law(
            "topological-modification", witness, modification, verdicts, (lat, cs.limtab)
        )
    return rep


# ---------------------------------------------------------------------------
# point/powerset duality suite


def _suite_kow(rng: random.Random, budget: int, inject: bool) -> SuiteReport:
    rep = SuiteReport("kow")
    spaces = [(name, space_fixture(name)) for name in space_fixture_names()]
    if inject:
        spaces.append(_injected("kow"))
    for origin, sp in spaces:
        witness = {"origin": origin, "structure": sp}
        rep._law(
            "unit-isomorphism",
            witness,
            lambda sp=sp: (is_isomorphism(eta(sp)), "the unit is not an isomorphism"),
        )

    small = [
        (name, space_fixture(name))
        for name in ("SIERP_SPACE", "DISCRETE2_SPACE", "CHAOTIC2_SPACE")
    ]
    for src_name, src in small:
        for tgt_name, tgt in small:
            witness = {"source": src_name, "target": tgt_name}

            def preimage_law(src=src, tgt=tgt):
                from .duality import P_space

                for f in all_point_maps(src, tgt):
                    phi = P_map(f)
                    if (
                        check_continuity(phi, P_space(tgt), P_space(src)).continuous
                        != is_continuous(f)
                    ):
                        return False, f"continuity of {f!r} disagrees with its preimage morphism"
                return True, ""

            rep._law("preimage-continuity", witness, preimage_law)

    verdicts: dict = {}
    corpus = _convergence_corpus(rng, max(budget // 4, 4), {})
    for origin, cs in corpus:
        witness = {"origin": origin, "structure": cs}
        lat = cs.lattice
        key = lat, cs.limtab

        def bullet_laws(cs=cs, lat=lat):
            full = (1 << len(points(cs))) - 1
            if bullet(cs, lat.bottom) != 0 or bullet(cs, lat.top) != full:
                return False, "point sets of the bounds are wrong"
            for a in range(lat.n):
                for b in range(lat.n):
                    if bullet(cs, lat.join(a, b)) != bullet(cs, a) | bullet(cs, b):
                        return False, f"point set of {lat.label(a)!r} v {lat.label(b)!r} is not the union"
                    if bullet(cs, lat.meet(a, b)) != bullet(cs, a) & bullet(cs, b):
                        return False, f"point set of {lat.label(a)!r} ^ {lat.label(b)!r} is not the intersection"
            return True, ""

        rep._law("point-set-lattice", witness, bullet_laws, verdicts, key)

        def kow_laws(cs=cs, lat=lat):
            pts = points(cs)
            plat = space_lattice(pt_space(cs))
            for a in range(1 << len(pts)):
                gen = kow(cs, Filter(plat, a)).generator
                for l in range(lat.n):
                    if (bullet(cs, l) & a == a) != lat.leq(gen, l):
                        return False, "pulled-back filter membership is wrong"
            for i, p in enumerate(pts):
                if kow(cs, Filter(plat, 1 << i)).generator != p:
                    return False, f"point filter of {lat.label(p)!r} pulls back wrong"
                if not bullet(cs, cs.limtab[p]) >> i & 1:
                    return False, f"point {lat.label(p)!r} is not a limit of its own filter"
            return True, ""

        rep._law("filter-pullback", witness, kow_laws, verdicts, key)

        def counit_law(cs=cs):
            from .duality import P_space

            eps = epsilon(cs)
            report = check_continuity(eps, cs, P_space(pt_space(cs)))
            return report.continuous and report.final, "the counit is not a final continuous map"

        rep._law("counit-final", witness, counit_law, verdicts, key)
    return rep


# ---------------------------------------------------------------------------
# locale suite


_SUBLOCALE_COUNTS = {"CHAIN2": 2, "CHAIN3": 4, "BOOL2": 4}


def star_extension_unique(
    sl: SublocaleLattice, extension: LatticeMorphism
) -> tuple[bool, str]:
    """The uniqueness half of :func:`~coframes.topology.star`: no coframe
    morphism other than ``extension`` agrees with it on the closed
    sublocales.  A depth-first search over the values of the other
    sublocales, in index order with values ascending, so it meets the
    tables in the lexicographic order of a scan over all of them and
    reports the same first second morphism.  A prefix is pruned as soon as
    a bound, or a meet or join among its assigned sublocales, breaks; in
    the worst case the cost is still the target size to the power of the
    number of other sublocales, so it is meant for small inputs."""
    src, target = sl.lattice, extension.target
    forced = set(sl.closed_index)
    free = [i for i in range(src.n) if i not in forced]
    # depth[i]: how many free sublocales are assigned once i is, 0 if forced
    depth = [0] * src.n
    for d, i in enumerate(free, 1):
        depth[i] = d
    # due[d]: the laws (x, y, r, op) meaning table[r] == op(table[x], table[y])
    # that become decidable at depth d; a bound is op returning the constant
    due: list[list] = [[] for _ in range(len(free) + 1)]
    for x, value in ((src.bottom, target.bottom), (src.top, target.top)):
        due[depth[x]].append((x, x, x, lambda a, b, value=value: value))
    for x in range(src.n):
        for y in range(x, src.n):
            for r, op in ((src.meet(x, y), target.meet), (src.join(x, y), target.join)):
                due[max(depth[x], depth[y], depth[r])].append((x, y, r, op))
    table = list(extension.values)

    def second(d: int) -> tuple[int, ...] | None:
        if any(table[r] != op(table[x], table[y]) for x, y, r, op in due[d]):
            return None
        if d == len(free):
            return None if tuple(table) == extension.values else tuple(table)
        for v in range(target.n):
            table[free[d]] = v
            found = second(d + 1)
            if found is not None:
                return found
        return None

    found = second(0)
    if found is not None:
        return False, (
            f"a second morphism {found} agrees on the closed "
            f"sublocales with {extension.values}"
        )
    return True, ""


def _suite_locale(rng: random.Random, budget: int, inject: bool) -> SuiteReport:
    rep = SuiteReport("locale")
    frames = [
        (name, lattice_fixture(name))
        for name in ("CHAIN2", "CHAIN3", "BOOL2", "CHAIN4", "V5")
    ]
    if inject:
        frames.append(("injected-M3", lattice_fixture("M3")))
    for name, lat in frames:
        witness = {"origin": name, "lattice": lat}

        def masks_closed(lat=lat):
            sl = sublocale_lattice(lat)
            family = set(sl.masks)
            for a in sl.masks:
                for b in sl.masks:
                    if a & b not in family:
                        return False, "sublocale masks are not intersection-closed"
            return True, ""

        rep._law("sublocale-intersections", witness, masks_closed)

        def canonical_strong(lat=lat):
            from .topology import is_strong

            sl = sublocale_lattice(lat)
            return is_strong(sl.canonical_topology()), "canonical topology is not strong"

        rep._law("canonical-topology-strong", witness, canonical_strong)

        if name in _SUBLOCALE_COUNTS:
            expected = _SUBLOCALE_COUNTS[name]
            rep._law(
                "sublocale-count",
                witness,
                lambda lat=lat, expected=expected: (
                    sublocale_lattice(lat).lattice.n == expected,
                    f"expected {expected} sublocales",
                ),
            )

    for ts_name in topology_fixture_names():
        ts = topology_fixture(ts_name)
        witness = {"origin": ts_name, "structure": ts}

        def counit_retract(ts=ts):
            from .lattice import compose
            from .topology import sublocale_map, wedge_C

            sl, collapse = sublocale_counit(ts)
            canon = sl.canonical_topology()
            sl2, collapse2 = sublocale_counit(canon)
            _, mapping2 = wedge_C(canon)
            omega = dualize(wedge_C(ts)[0])
            iso = [mapping2.index(sl.closed_index[u]) for u in range(omega.n)]
            mu = sublocale_map(sl, sl2, iso)
            roundtrip = compose(collapse2, mu)
            if roundtrip.values != tuple(range(sl.lattice.n)):
                return False, "re-embedding then collapsing is not the identity"
            if compose(collapse, roundtrip).values != collapse.values:
                return False, "the collapse does not absorb the round trip"
            return True, ""

        rep._law("counit-retraction", witness, counit_retract)

        def extension_unique(ts=ts):
            return star_extension_unique(*sublocale_counit(ts))

        rep._law("star-extension-unique", witness, extension_unique)
    return rep


# ---------------------------------------------------------------------------
# registry


_SUITES: dict[str, Callable[[random.Random, int, bool], SuiteReport]] = {
    "lattice": _suite_lattice,
    "grill": _suite_grill,
    "convergence": _suite_convergence,
    "galois-adh": _suite_galois_adh,
    "topology": _suite_topology,
    "kow": _suite_kow,
    "locale": _suite_locale,
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(
    name: str, *, seed: int = 0, budget: int = 100, inject_fault: bool = False
) -> SuiteReport:
    """Run one named suite; randomness is a pure function of the seed."""
    if name not in _SUITES:
        raise ConjectureError(
            f"unknown suite {name!r}; available: {', '.join(_SUITES)}"
        )
    rng = random.Random(f"{seed}:{name}")
    return _SUITES[name](rng, budget, inject_fault)


def run_all(
    *, seed: int = 0, budget: int = 100, inject_fault: bool = False
) -> list[SuiteReport]:
    return [
        run_suite(name, seed=seed, budget=budget, inject_fault=inject_fault)
        for name in _SUITES
    ]
