"""The construction rule: every public value class validates itself on
construction, and the producers whose output is valid by construction build
it through the one trusted constructor, ``lattice._trusted``.

The trusted builds are the oracle's half that left the production paths:
every call of ``_trusted`` in the package is found with ``ast``, every
producer is run over the shared corpus (``small_coframes(6)`` and every
fixture) with ``_trusted`` re-validating each value it builds through the
public constructor, and every call site must be reached.
"""

import ast
import dataclasses
import random
import sys
from collections import Counter
from itertools import islice, product
from pathlib import Path

import pytest

import coframes
from coframes import lattice as lattice_module
from coframes.adherence import (
    AdherenceStructure,
    adh_structure_of,
    adherence_structure,
    check_adh_continuity,
    enumerate_adherence_structures,
    final_lift_adh,
    lim_of_nu,
    random_adherence_structure,
)
from coframes.convergence import (
    S1_KINDS,
    ConvergenceStructure,
    check_continuity,
    final_lift,
    s1,
)
from coframes.duality import (
    P_map,
    P_space,
    all_point_maps,
    epsilon,
    kow,
    modify_space,
    phi_dagger,
    pt_adh,
    pt_map,
    pt_space,
    pt_top,
    space_lattice,
    to_adherence,
    to_pretop,
    top_space_convergence,
)
from coframes.errors import AxiomViolation, EngineError, NotDistributive
from coframes.filters import (
    Filter,
    UpSet,
    all_filters,
    enumerate_upset_masks,
    grill,
    intersection,
    preimage_filter,
    preimage_upset,
    restrict_complemented,
)
from coframes.fixtures import (
    adherence_fixture,
    adherence_fixture_names,
    convergence_fixture,
    convergence_fixture_names,
    enumerate_antitone_tables,
    lattice_fixture,
    lattice_fixture_names,
    random_antitone_table,
    space_fixture,
    space_fixture_names,
    topology_fixture,
    topology_fixture_names,
)
from coframes.laws import _injected
from coframes.lattice import (
    LatticeMorphism,
    analyze,
    compose,
    identity_morphism,
    left_adjoint,
)
from coframes.search import _candidates, _random_candidate, small_coframes
from coframes.topology import (
    C_of_nu,
    TopologicalStructure,
    enumerate_topologies,
    lim_of_C,
    maps_closed_to_closed,
    nu_of_C,
    sublocale_counit,
    topological_modification,
)

SRC = Path(coframes.__file__).parent

# Every producer that calls the trusted constructor, as (module, function).
TRUSTED_SITES = {
    ("adherence", "adh_structure_of"),
    ("adherence", "adherence_from_atom_values"),
    ("adherence", "lim_of_nu"),
    ("convergence", "s1"),
    ("convergence", "s_infinity"),
    ("convergence", "structure"),
    ("duality", "P_map"),
    ("duality", "P_space"),
    ("duality", "epsilon"),
    ("duality", "kow"),
    ("duality", "modify_space"),
    ("duality", "pt_adh"),
    ("duality", "pt_space"),
    ("duality", "pt_top"),
    ("duality", "to_adherence"),
    ("duality", "to_pretop"),
    ("duality", "top_space_convergence"),
    ("filters", "all_filters"),
    ("filters", "grill"),
    ("filters", "intersection"),
    ("filters", "preimage_filter"),
    ("filters", "preimage_upset"),
    ("filters", "restrict_complemented"),
    ("laws", "_injected"),
    ("lattice", "adjoint"),
    ("lattice", "compose"),
    ("lattice", "identity_morphism"),
    ("topology", "C_of_nu"),
    ("topology", "enumerate_topologies"),
    ("topology", "lim_of_C"),
    ("topology", "nu_of_C"),
    ("topology", "star"),
    ("topology", "sublocale_lattice"),
    ("topology", "topological_modification"),
}

# The corrupted members of the law suites' fault injection: built past
# validation on purpose, so the public constructors must reject them.
INJECTED_SITES = {("laws", "_injected")}


def trusted_calls() -> list[tuple[str, range, str]]:
    """(module, lines, innermost enclosing function) of every ``_trusted``
    call in the package."""
    calls = []
    for path in sorted(SRC.glob("*.py")):

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_trusted"
            ):
                lines = range(node.lineno, node.end_lineno + 1)
                calls.append((path.stem, lines, function))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text()), None)
    return calls


def _caller_site(calls) -> tuple[str, str]:
    """(module, function) of the call of ``_trusted`` now running, located
    by the calling frame's line, so a generator expression that outlives its
    function is still attributed to it."""
    frame = sys._getframe(2)
    module = Path(frame.f_code.co_filename).stem
    for mod, lines, function in calls:
        if mod == module and frame.f_lineno in lines:
            return module, function
    return module, frame.f_code.co_name


@pytest.fixture
def revalidated(monkeypatch):
    """Rebind ``_trusted`` in every package module to a version that passes
    each value back through its public constructor; yields the hit count
    per call site."""
    original = lattice_module._trusted
    calls = trusted_calls()
    hits: Counter = Counter()

    def checking(cls, **fields):
        value = original(cls, **fields)
        site = _caller_site(calls)
        try:
            dataclasses.replace(value)
        except EngineError as err:
            pytest.fail(f"trusted build in {site} fails validation: {value!r}: {err}")
        hits[site] += 1
        return value

    for name, module in list(sys.modules.items()):
        if name.startswith("coframes.") and vars(module).get("_trusted") is original:
            monkeypatch.setattr(module, "_trusted", checking)
    return hits


# ---------------------------------------------------------------------------
# the shared corpus


def _carriers():
    seen, out = set(), []
    for lat in list(small_coframes(6)) + [lattice_fixture(n) for n in lattice_fixture_names()]:
        if id(lat) not in seen and analyze(lat).distributive:
            seen.add(id(lat))
            out.append(lat)
    return out


def _nondistributive():
    return [lattice_fixture(n) for n in ("M3", "N5")]


def _structures(lat, rng):
    tables = list(islice(enumerate_antitone_tables(lat), 30))
    tables += list(islice(enumerate_antitone_tables(lat, pretopological=True), 15))
    tables += [random_antitone_table(rng, lat) for _ in range(8)]
    return [ConvergenceStructure(lat, t) for t in tables]


def _run_producers():
    """Call every trusted producer over the shared corpus."""
    rng = random.Random(2024)
    carriers = _carriers()
    structures = [convergence_fixture(n) for n in convergence_fixture_names()]
    adherences = [adherence_fixture(n) for n in adherence_fixture_names()]
    topologies = [topology_fixture(n) for n in topology_fixture_names()]
    for lat in carriers:
        structures += _structures(lat, rng)
        adherences += list(islice(enumerate_adherence_structures(lat, budget=10**9), 20))
        adherences += [random_adherence_structure(rng, lat) for _ in range(5)]
        topologies += list(enumerate_topologies(lat))
    for lat in _nondistributive():
        with pytest.raises(NotDistributive):
            list(enumerate_topologies(lat))
        with pytest.raises(NotDistributive):
            random_adherence_structure(rng, lat)

    # filters and up-sets, on every fixture carrier
    for lat in carriers + _nondistributive():
        filters = all_filters(lat)
        for f in filters:
            grill(f)
            restrict_complemented(f)
        if lat.n <= 8:
            for f, g in product(filters, repeat=2):
                intersection(f, g)
            for mask in enumerate_upset_masks(lat):
                grill(UpSet(lat, mask))

    # morphisms: identities, the point-set counits, the preimage maps, and
    # their composites with identities and with their own adjoints
    small_spaces = [space_fixture(n) for n in ("SIERP_SPACE", "DISCRETE2_SPACE", "CHAOTIC2_SPACE")]
    morphisms = [identity_morphism(lat) for lat in carriers]
    morphisms += [epsilon(cs) for cs in structures[::7]]
    morphisms += [
        P_map(f) for a, b in product(small_spaces, repeat=2) for f in all_point_maps(a, b)
    ]
    c2, c3 = lattice_fixture("CHAIN2"), lattice_fixture("CHAIN3")
    morphisms.append(LatticeMorphism(c3, c2, (0, 1, 1)))
    morphisms.append(LatticeMorphism(c2, c3, (0, 2)))
    for phi in morphisms:
        # the preimage filter and the left adjoint are read off the same
        # meets; the membership scan and the adjunction are their oracles
        adj = left_adjoint(phi)
        compose(identity_morphism(phi.target), phi)
        compose(adj, phi)
        for f in all_filters(phi.target):
            pre = preimage_filter(phi, f)
            assert pre.generator == adj.values[f.generator]
            assert all((l in pre) == (v in f) for l, v in enumerate(phi.values))
        if phi.target.n <= 8:
            for mask in enumerate_upset_masks(phi.target):
                preimage_upset(phi, UpSet(phi.target, mask))

    # convergence, adherence and topological structures
    for cs in structures:
        for kind in S1_KINDS:
            s1(cs, kind)
        adh_structure_of(cs)
        topological_modification(cs)
    for ns in adherences:
        lim_of_nu(ns)
        C_of_nu(ns)
        pt_adh(ns)
    for ts in topologies:
        nu_of_C(ts)
        lim_of_C(ts)
        pt_top(ts)
    # the closed embeddings and the collapses through ``star``, on every
    # topology whose closed part is within the sublocale budget
    for ts in topologies[::3] + [topology_fixture(n) for n in topology_fixture_names()]:
        if ts.closed.bit_count() <= 5:
            sublocale_counit(ts)

    # spaces
    spaces = [space_fixture(n) for n in space_fixture_names()]
    for cs in structures[::3]:
        spaces.append(pt_space(cs))
        plat = space_lattice(spaces[-1])
        for a in range(plat.n):
            kow(cs, Filter(plat, a))
    for sp in spaces:
        cs = P_space(sp)
        for kind in ("lim", "pretop", "top"):
            modify_space(sp, kind)
        if coframes.classify(cs).pretopological:
            closure = to_adherence(sp)
            to_pretop(closure)
    for ns in adherences[::5]:
        try:
            to_pretop(pt_adh(ns))
        except AxiomViolation as err:  # a closure that is not expansive
            assert err.axiom == "space.point"
    for ts in topologies[::5]:
        top_space_convergence(pt_top(ts))

    # search candidates, one per antecedent class, and the structures their
    # flags build
    for lat in carriers:
        for antecedent in ((), ("pretopological",), ("topological",)):
            candidates = list(islice(_candidates(antecedent, lat), 40))
            candidates.append(_random_candidate(antecedent, rng, lat, {}, set()))
            assert all(flags.structure.limtab == flags.limtab for flags in candidates)


class TestTrustedBuilds:
    def test_every_trusted_call_site_is_listed(self):
        assert {(module, function) for module, _, function in trusted_calls()} == TRUSTED_SITES

    def test_every_trusted_build_passes_its_public_constructor(self, revalidated):
        _run_producers()
        assert set(revalidated) == TRUSTED_SITES - INJECTED_SITES
        assert all(count > 0 for count in revalidated.values())

    @pytest.mark.parametrize("suite", ["convergence", "galois-adh", "topology", "kow"])
    def test_injected_faults_fail_their_public_constructor(self, suite):
        origin, value = _injected(suite)
        assert origin.startswith("injected")
        with pytest.raises(EngineError):
            dataclasses.replace(value)


class TestPublicConstructorsValidate:
    def test_adherence_structure_rejects_a_bad_table(self):
        lat = lattice_fixture("BOOL2")
        with pytest.raises(AxiomViolation):
            AdherenceStructure(lat, (9, 9, 9, 9))
        with pytest.raises(AxiomViolation) as err:
            AdherenceStructure(lat, (lat.top,) * lat.n)
        assert err.value.axiom == "adherence.bottom"
        with pytest.raises(NotDistributive):
            AdherenceStructure(lattice_fixture("M3"), (0,) * 5)

    def test_topological_structure_rejects_a_bad_mask(self):
        lat = lattice_fixture("BOOL2")
        with pytest.raises(AxiomViolation) as err:
            TopologicalStructure(lat, 1 << lat.top)
        assert err.value.axiom == "topology.bounds"
        with pytest.raises(AxiomViolation) as err:
            TopologicalStructure(lat, 1 << lat.n | 1 << lat.bottom | 1 << lat.top)
        assert err.value.axiom == "topology.members"
        with pytest.raises(EngineError):
            TopologicalStructure(lat, -1)

    def test_filter_rejects_a_generator_outside_the_carrier(self):
        lat = lattice_fixture("CHAIN3")
        for generator in (-1, lat.n):
            with pytest.raises(AxiomViolation) as err:
                Filter(lat, generator)
            assert err.value.axiom == "filter.generator"

    def test_the_conversion_constructors_build_the_same_values(self):
        lat = lattice_fixture("PX3")
        ns = adherence_fixture("PX3_ADH")
        assert adherence_structure(lat, list(ns.nutab)).nutab == ns.nutab


class TestMorphismsValidateOnce:
    """A morphism is checked once, when it is built; its consumers never
    re-check it and build its least-preimage map at most once between them."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts: Counter = Counter()
        raw = lattice_module._table_violation
        adjoint = LatticeMorphism.__dict__["adjoint"]
        build = adjoint.compute

        def counting_laws(*args):
            counts["laws"] += 1
            return raw(*args)

        def counting_build(phi):
            counts["adjoint"] += 1
            return build(phi)

        monkeypatch.setattr(lattice_module, "_table_violation", counting_laws)
        monkeypatch.setattr(adjoint, "compute", counting_build)
        return counts

    def _consumers(self):
        sp = space_fixture("SIERP_SPACE")
        lat = space_lattice(sp)
        cs = P_space(sp)
        ns = adh_structure_of(cs)
        ts = next(iter(enumerate_topologies(lat)))
        return lat, {
            "check_continuity": lambda phi: check_continuity(phi, cs, cs),
            "check_adh_continuity": lambda phi: check_adh_continuity(phi, ns, ns),
            "final_lift": lambda phi: final_lift(lat, [(phi, cs), (phi, cs)]),
            "final_lift_adh": lambda phi: final_lift_adh(lat, [(phi, ns), (phi, ns)]),
            "preimage_filter": lambda phi: [preimage_filter(phi, f) for f in all_filters(lat)],
            "preimage_upset": lambda phi: preimage_upset(phi, UpSet(lat, lat.up[lat.top])),
            "maps_closed_to_closed": lambda phi: maps_closed_to_closed(phi, ts, ts),
            "phi_dagger": lambda phi: phi_dagger(phi, cs, sp),
            "pt_map": lambda phi: pt_map(phi, cs, cs),
        }

    def test_construction_checks_the_laws_once(self, counts):
        lat, _ = self._consumers()
        LatticeMorphism(lat, lat, tuple(range(lat.n)))
        assert counts == {"laws": 1}

    def test_consumers_never_recheck_a_built_morphism(self, counts):
        lat, consumers = self._consumers()
        for name, consume in consumers.items():
            phi = LatticeMorphism(lat, lat, tuple(range(lat.n)))
            counts.clear()
            consume(phi)
            consume(phi)
            assert counts["laws"] == 0, name
            assert counts["adjoint"] <= 1, name
