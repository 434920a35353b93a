"""Tests for the conjecture grammar, the small-carrier sweep, and the
counterexample search."""

import dataclasses
import random
from collections import Counter
from itertools import combinations

import pytest

from coframes import analyze
from coframes import convergence as convergence_module
from coframes import search as search_module
from coframes.adherence import adh0_table, adh_table
from coframes.convergence import (
    CLASS_COST_ORDER,
    ClassFlags,
    ConvergenceStructure,
    classify,
)
from coframes.documents import convergence_from_doc
from coframes.errors import BudgetExceeded, ConjectureError
from coframes.fixtures import (
    convergence_fixture,
    convergence_fixture_names,
    enumerate_antitone_tables,
    lattice_fixture,
    lattice_fixture_names,
    random_antitone_table,
    random_downset_lattice,
)
from coframes.lattice import downset_lattice, poset_from_covers
from coframes.search import (
    PREDICATES,
    Conjecture,
    SearchResult,
    _candidates,
    _names_pretopological,
    _random_candidate,
    parse_conjecture,
    search_counterexample,
    small_coframes,
)
from coframes.topology import enumerate_topologies, lim_of_C


class TestGrammar:
    def test_implication(self):
        c = parse_conjecture("centered & pretopological => topological")
        assert c.antecedent == ("centered", "pretopological")
        assert c.consequent == ("topological",)
        assert c.text() == "centered & pretopological => topological"

    def test_bare_conjunction_is_a_universal_claim(self):
        c = parse_conjecture("strict & limit")
        assert c.antecedent == ()
        assert c.consequent == ("strict", "limit")
        assert c.text() == "strict & limit"

    def test_whitespace_and_duplicates_are_normalized(self):
        c = parse_conjecture("  strict &strict=>  centered ")
        assert c.antecedent == ("strict",)
        assert c.consequent == ("centered",)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "=> centered",
            "strict =>",
            "strict => centered => limit",
            "bogus => centered",
            "strict & => centered",
        ],
    )
    def test_malformed_conjectures_rejected(self, bad):
        with pytest.raises(ConjectureError):
            parse_conjecture(bad)

    def test_the_six_class_names_are_pinned(self):
        names = ("classical", "limit", "strict", "pretopological", "centered", "topological")
        assert PREDICATES == names
        flags = classify(convergence_fixture("SIERP_LIM")).flags()
        assert tuple(flags) == names
        with pytest.raises(ConjectureError) as err:
            parse_conjecture("bogus => centered")
        assert str(err.value) == f"unknown predicate 'bogus'; choose from {', '.join(names)}"

    def test_refuted_by(self):
        c = Conjecture(("strict",), ("centered",))
        assert c.refuted_by({"strict": True, "centered": False})
        assert not c.refuted_by({"strict": False, "centered": False})
        assert not c.refuted_by({"strict": True, "centered": True})


    def test_unknown_predicate_rejected_on_construction(self):
        with pytest.raises(ConjectureError):
            Conjecture(("strict",), ("bogus",))


class ReadLog(dict):
    """Flags that record which names were read."""

    def __init__(self, flags):
        super().__init__(flags)
        self.read = []

    def __getitem__(self, name):
        self.read.append(name)
        return super().__getitem__(name)


def reference_refuted_by(conjecture, flags):
    """The verdict of ``Conjecture.refuted_by`` walked afresh over
    ``CLASS_COST_ORDER``, the oracle for its read plan: read the named flags
    cheapest first, skip consequent flags once one is false, and stop once
    an antecedent flag is false or every consequent flag is true."""
    unread = set(conjecture.consequent)
    broken = False
    for name in CLASS_COST_ORDER:
        in_antecedent = name in conjecture.antecedent
        if not in_antecedent and (broken or name not in unread):
            continue
        value = flags[name]
        if in_antecedent and not value:
            return False
        if name in unread:
            unread.discard(name)
            broken = broken or not value
            if not unread and not broken:
                return False
    return broken


def conjectures_of_two():
    """Every conjecture with at most two predicates on each side."""
    sides = [side for k in (1, 2) for side in combinations(PREDICATES, k)]
    return [Conjecture(a, c) for a in [(), *sides] for c in sides]


def by_carrier(structures):
    """(carrier, its structures) pairs, in order of first appearance."""
    carriers = {}
    for cs in structures:
        carriers.setdefault(cs.lattice, []).append(cs)
    return carriers.items()


class TestLazyFlags:
    STRUCTURES = [
        ConvergenceStructure(lat, t)
        for lat in small_coframes(5)
        for t in enumerate_antitone_tables(lat)
    ]
    CONJECTURES = [Conjecture((a,), (b,)) for a in PREDICATES for b in PREDICATES]

    def test_lazy_verdicts_match_full_classification(self):
        for cs in self.STRUCTURES:
            full = classify(cs)
            assert not full.topological or full.pretopological, cs
            for conjecture in self.CONJECTURES:
                assert conjecture.refuted_by(ClassFlags(cs)) == conjecture.refuted_by(
                    full.flags()
                ), (conjecture.text(), cs)
            assert dict(ClassFlags(cs)) == full.flags()

    def test_table_flags_match_structure_flags(self, monkeypatch):
        # the bound judge reads the tables of every structure on
        # small_coframes(5) and of every fixture: its verdict is that of the
        # lazy and of the full flags, and it reads the flags the reference
        # walk reads, in the same order, as refuted_by does
        read = []

        def logging(name, bind):
            def bound(lat, structure):
                test = bind(lat, structure)

                def logged(tab):
                    read.append(name)
                    return test(tab)

                return logged

            return bound

        tests = convergence_module._CLASS_TESTS
        for name, bind in list(tests.items()):
            monkeypatch.setitem(tests, name, logging(name, bind))
        fixtures = [convergence_fixture(name) for name in convergence_fixture_names()]
        carriers = by_carrier(self.STRUCTURES + fixtures)
        lazy = {cs: ClassFlags(cs) for cs in self.STRUCTURES + fixtures}
        full = {cs: classify(cs).flags() for cs in self.STRUCTURES + fixtures}
        for conjecture in conjectures_of_two():
            for lat, structures in carriers:
                judge = conjecture.judge(lat)
                for cs in structures:
                    log = ReadLog(full[cs])
                    expected = reference_refuted_by(conjecture, log)
                    read.clear()
                    assert judge(cs.limtab) == expected, (conjecture.text(), cs)
                    assert read == log.read, (conjecture.text(), cs)
                    log.read.clear()
                    assert conjecture.refuted_by(log) == expected, (conjecture.text(), cs)
                    assert log.read == read, (conjecture.text(), cs)
                    assert conjecture.refuted_by(lazy[cs]) == expected, (conjecture.text(), cs)

    def test_table_flags_build_a_structure_only_when_one_is_read(self, monkeypatch):
        built = []

        def counting(cls, **fields):
            built.append(fields["limtab"])
            return trusted(cls, **fields)

        trusted = convergence_module._trusted
        monkeypatch.setattr(convergence_module, "_trusted", counting)
        carriers = by_carrier(self.STRUCTURES)
        structure_level = {"centered", "topological"}
        for conjecture in conjectures_of_two():
            if structure_level & {*conjecture.antecedent, *conjecture.consequent}:
                continue
            for lat, structures in carriers:
                judge = conjecture.judge(lat)
                for cs in structures:
                    judge(cs.limtab)
        assert built == []
        # both structure-level flags are read on every centered table, and
        # share its one structure
        claim = Conjecture((), ("centered", "topological"))
        for lat, structures in carriers:
            judge = claim.judge(lat)
            for cs in structures:
                assert judge(cs.limtab) == claim.refuted_by(classify(cs).flags())
        assert built == [cs.limtab for cs in self.STRUCTURES]
        cs = self.STRUCTURES[-1]
        assert ClassFlags(cs).structure is cs

    def test_derived_tables_are_built_once_per_structure(self):
        for cs in self.STRUCTURES:
            assert adh0_table(cs) is adh0_table(cs)
            assert adh_table(cs) is adh_table(cs)

    def test_flags_read_cheapest_first_and_only_until_known(self):
        flags = dict.fromkeys(PREDICATES, True)
        flags["strict"] = False
        log = ReadLog(flags)
        assert parse_conjecture("topological => strict & centered").refuted_by(log)
        # strict is false, so the consequent fails and centered is skipped
        assert log.read == ["strict", "topological"]
        log = ReadLog(flags)
        assert not parse_conjecture("pretopological & strict => limit").refuted_by(log)
        assert log.read == ["strict"]
        log = ReadLog(dict.fromkeys(PREDICATES, True))
        assert not parse_conjecture("centered => limit & classical").refuted_by(log)
        assert log.read == ["limit", "classical"]
        assert list(ClassFlags(self.STRUCTURES[0])) == list(CLASS_COST_ORDER)


class TestSmallCoframes:
    def test_all_distributive_lattices_up_to_five_elements(self):
        sizes = [lat.n for lat in small_coframes(5)]
        # 1, 1, 1, 2 and 3 distributive lattices of sizes 1..5.
        assert sizes == [1, 2, 3, 4, 4, 5, 5, 5]

    def test_every_carrier_is_distributive(self):
        for lat in small_coframes(5):
            assert analyze(lat).distributive

    def test_carrier_counts_are_the_distributive_lattice_counts(self):
        # OEIS A006982: distributive lattices on n unlabeled elements
        counts = Counter(lat.n for lat in small_coframes(9))
        assert [counts[n] for n in range(1, 10)] == [1, 1, 1, 2, 3, 5, 8, 15, 26]

    def test_no_two_carriers_are_isomorphic(self):
        carriers = list(small_coframes(8))
        for i, a in enumerate(carriers):
            for b in carriers[i + 1 :]:
                assert not order_isomorphic(a, b), (a, b)

    def test_isomorphism_check_sees_relabelled_copies(self):
        # the same poset a < c > b under another labelling and point order
        first = downset_lattice(poset_from_covers(("a", "b", "c"), [("a", "c"), ("b", "c")]))
        second = downset_lattice(poset_from_covers(("z", "y", "x"), [("x", "z"), ("y", "z")]))
        assert order_isomorphic(first, second)
        assert order_isomorphic(first, lattice_fixture("V5"))
        assert not order_isomorphic(first, first.dual)

    def test_long_chains_are_carriers(self):
        chains = [lat.n for lat in small_coframes(8) if is_chain(lat)]
        assert chains == list(range(1, 9))

    def test_size_bound_respected(self):
        assert max(lat.n for lat in small_coframes(4)) == 4

    def test_bound_above_seventeen_is_refused_up_front(self):
        with pytest.raises(BudgetExceeded):
            next(small_coframes(18))
        # also for a conjecture a fixture refutes before any carrier is built
        for text in ("topological => strict", "strict => centered"):
            with pytest.raises(BudgetExceeded):
                search_counterexample(parse_conjecture(text), max_lattice=40)


def is_chain(lat):
    return all((lat.up[i] | lat.down[i]) == lat.full_mask for i in range(lat.n))


def order_isomorphic(a, b):
    """Whether some bijection of the elements preserves and reflects the
    order, by backtracking over elements in rank order; an image must have
    the same down- and up-set sizes."""
    if a.n != b.n:
        return False

    def degrees(lat, i):
        return lat.down[i].bit_count(), lat.up[i].bit_count()

    order = a.rank_order()
    image = {}

    def extend(pos):
        if pos == len(order):
            return True
        x = order[pos]
        for y in range(b.n):
            if y in image.values() or degrees(b, y) != degrees(a, x):
                continue
            if all(
                a.leq(z, x) == b.leq(w, y) and a.leq(x, z) == b.leq(y, w)
                for z, w in image.items()
            ):
                image[x] = y
                if extend(pos + 1):
                    return True
                del image[x]
        return False

    return extend(0)


def fixture_carriers():
    """The distributive fixture carriers whose antitone tables can be
    listed (BOOL4 has too many)."""
    fixtures = [lattice_fixture(name) for name in lattice_fixture_names()]
    return [lat for lat in fixtures if lat.n <= 8 and analyze(lat).distributive]


class TestClassGenerators:
    def test_each_generator_gives_exactly_its_class(self):
        # the full enumeration filtered by the flag is the oracle
        sweep = list(small_coframes(7))
        totals = Counter()
        for lat in sweep + fixture_carriers():
            everything = [ConvergenceStructure(lat, t) for t in enumerate_antitone_tables(lat)]
            for name in ("topological", "pretopological"):
                generated = list(_candidates((name,), lat))
                expected = {cs.limtab for cs in everything if ClassFlags(cs)[name]}
                assert len(generated) == len(set(generated)), (lat, name)
                assert set(generated) == expected, (lat, name)
                if lat in sweep:
                    totals[name] += len(generated)
        assert totals == {"pretopological": 5409, "topological": 27}

    def test_named_flags_pick_the_generator(self):
        lat = lattice_fixture("V5")
        pretop = set(enumerate_antitone_tables(lat, pretopological=True))
        for antecedent in (("pretopological",), ("limit", "strict"), ("centered", "pretopological")):
            assert set(_candidates(antecedent, lat)) == pretop
        everything = set(enumerate_antitone_tables(lat))
        for antecedent in (("centered",), ("strict",), ("limit",)):
            assert set(_candidates(antecedent, lat)) == everything
        topological = set(_candidates(("pretopological", "topological"), lat))
        assert topological == set(_candidates(("topological",), lat))
        assert topological < pretop

    def test_pretopological_tables_are_antitone_on_any_carrier(self):
        # on a non-distributive carrier the fixed values still keep the order
        for name in ("M3", "N5"):
            lat = lattice_fixture(name)
            for tab in enumerate_antitone_tables(lat, pretopological=True):
                assert all(
                    lat.leq(tab[y], tab[x])
                    for x in range(lat.n)
                    for y in range(lat.n)
                    if lat.leq(x, y)
                ), (name, tab)

    def test_random_draws_stay_in_their_class(self):
        rng = random.Random(7)
        for lat in list(small_coframes(7)) + fixture_carriers():
            for _ in range(5):
                tab = _random_candidate(("pretopological",), rng, lat, {}, set())
                cs = ConvergenceStructure(lat, tab)
                assert ClassFlags(cs)["pretopological"], (lat, cs)
            cs = ConvergenceStructure(lat, _random_candidate(("topological",), rng, lat, {}, set()))
            assert ClassFlags(cs)["topological"], (lat, cs)


class TestSearch:
    def test_known_gap_found_on_the_documented_fixture(self):
        result = search_counterexample(
            parse_conjecture("centered & pretopological => topological")
        )
        assert result.outcome == "counterexample"
        assert result.origin == "fixture:PX3_PRETOP"
        assert result.flags["pretopological"] and result.flags["centered"]
        assert not result.flags["topological"]

    def test_strict_does_not_imply_centered(self):
        result = search_counterexample(parse_conjecture("strict => centered"))
        assert result.outcome == "counterexample"
        assert result.origin == "fixture:CHAIN3_PRETOP_GAP"

    @pytest.mark.parametrize(
        "true_conjecture",
        [
            "topological => pretopological",
            "topological => strict",
            "pretopological => limit",
            "pretopological => strict",
        ],
    )
    def test_true_implications_are_exhausted(self, true_conjecture):
        # the antecedent's class on the 5 carriers up to 4 elements: 8
        # topologies (4 on the square), and 45 pretopological tables
        # (1 + 2 + 6 + 20 on the chains, 16 on the square)
        swept = 8 if true_conjecture.startswith("topological") else 45
        result = search_counterexample(
            parse_conjecture(true_conjecture), max_lattice=4, budget=50
        )
        assert result.outcome == "exhausted"
        assert result.counterexample is None
        assert result.witness_document() is None
        assert result.lattices_tested == 5
        # the fixture corpus, the class sweep, then the random budget
        assert result.structures_tested == len(convergence_fixture_names()) + swept + 50

    def test_witness_document_is_recheckable(self):
        conjecture = parse_conjecture("centered & pretopological => topological")
        result = search_counterexample(conjecture)
        doc = result.witness_document()
        rebuilt = convergence_from_doc(doc["structure"])
        assert conjecture.refuted_by(classify(rebuilt).flags())
        assert doc["conjecture"] == conjecture.text()
        assert doc["flags"] == classify(rebuilt).flags()

    def test_enumerated_witness_outside_the_fixture_corpus(self):
        # Every fixture satisfies the limit law, and on chain carriers all
        # antitone tables do, so refuting the bare claim takes the sweep to
        # its first non-chain carrier.
        result = search_counterexample(parse_conjecture("limit"))
        assert result.outcome == "counterexample"
        assert result.origin.startswith("enumerated:")
        rebuilt = convergence_from_doc(result.witness_document()["structure"])
        assert not classify(rebuilt).flags()["limit"]
        assert rebuilt.lattice.n == 4  # the diamond is the smallest refuter

    def test_deterministic_in_the_seed(self):
        conjecture = parse_conjecture("strict => centered")
        a = search_counterexample(conjecture, seed=3, budget=20)
        b = search_counterexample(conjecture, seed=3, budget=20)
        assert a.origin == b.origin
        assert a.structures_tested == b.structures_tested
        assert a.witness_document() == b.witness_document()

    def test_max_lattice_must_be_positive(self):
        with pytest.raises(ConjectureError):
            search_counterexample(parse_conjecture("strict => centered"), max_lattice=0)


def per_draw_search(conjecture, *, max_lattice, seed, budget=200):
    """The search with a per-draw random phase, the oracle for the tables
    of ``search_counterexample``: every draw lists its carrier's topologies
    afresh and builds and judges its structure, through the public
    constructor and a full classification."""
    swept = search_counterexample(conjecture, max_lattice=max_lattice, seed=seed, budget=0)
    if swept.outcome == "counterexample":
        return swept
    antecedent = conjecture.antecedent
    pretopological = _names_pretopological(antecedent)
    structures = swept.structures_tested
    rng = random.Random(seed)
    carriers = {}
    for i in range(budget):
        lat = random_downset_lattice(rng, max(8, max_lattice), carriers=carriers)
        if "topological" in antecedent:
            cs = lim_of_C(rng.choice(list(enumerate_topologies(lat))))
        else:
            tab = random_antitone_table(rng, lat, pretopological=pretopological)
            cs = ConvergenceStructure(lat, tab)
        structures += 1
        flags = classify(cs).flags()
        if conjecture.refuted_by(flags):
            return dataclasses.replace(
                swept,
                outcome="counterexample",
                origin=f"random:{i}",
                counterexample=cs,
                flags=flags,
                structures_tested=structures,
            )
    return dataclasses.replace(swept, structures_tested=structures)


def answer(result: SearchResult) -> tuple:
    """Every field but the structure, which the witness document holds."""
    fields = dataclasses.asdict(dataclasses.replace(result, counterexample=None))
    return fields, result.witness_document()


class TestRandomPhase:
    @pytest.mark.parametrize(
        "text, max_lattice, seed, origin",
        [
            ("topological => pretopological", 7, 23, None),
            ("topological => pretopological", 7, 41, None),
            ("pretopological => strict & limit", 7, 23, None),
            ("pretopological => strict & limit", 7, 41, None),
            ("classical => limit", 3, 23, "random:4"),
            ("strict => limit", 3, 23, "random:59"),
            ("centered => limit", 3, 23, "random:129"),
        ],
    )
    def test_answers_match_the_per_draw_loop(self, text, max_lattice, seed, origin):
        conjecture = parse_conjecture(text)
        result = search_counterexample(conjecture, max_lattice=max_lattice, seed=seed)
        oracle = per_draw_search(conjecture, max_lattice=max_lattice, seed=seed)
        assert result.origin == origin
        assert answer(result) == answer(oracle)

    def test_each_carrier_lists_its_topologies_once(self, monkeypatch):
        listed = []

        def counting(lat):
            listed.append(lat)
            return enumerate_topologies(lat)

        monkeypatch.setattr(search_module, "enumerate_topologies", counting)
        result = search_counterexample(
            parse_conjecture("topological => pretopological"), max_lattice=7, seed=23
        )
        assert result.outcome == "exhausted" and result.structures_tested == 233
        # 21 swept carriers and 25 distinct random ones, against one listing
        # per draw (200) on top of the sweep
        assert len({id(lat) for lat in listed}) == len(listed) == 21 + 25
