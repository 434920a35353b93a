"""Tests for the law-suite runner: clean corpora pass, injected faults are
detected, witnesses are re-checkable documents, and runs are deterministic
in the seed."""

import gc
import json
import weakref
from collections import Counter

import pytest

import coframes.fixtures as fixtures
import coframes.laws as laws
import coframes.search as search
from coframes import parse_conjecture
from coframes.documents import structure_to_doc
from coframes.errors import ConjectureError
from coframes.fixtures import (
    convergence_fixture_names,
    lattice_fixture,
    lattice_fixture_names,
)
from coframes.laws import SuiteReport, Violation, run_all, run_suite, suite_names

BUDGET = 40  # keeps the whole file fast while still exercising random corpora

EXPECTED_SUITES = (
    "lattice",
    "grill",
    "convergence",
    "galois-adh",
    "topology",
    "kow",
    "locale",
)


class TestRegistry:
    def test_suite_names(self):
        assert suite_names() == EXPECTED_SUITES

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConjectureError, match="unknown suite"):
            run_suite("no-such-suite")

    def test_run_all_covers_every_suite(self):
        reports = run_all(budget=10)
        assert tuple(r.suite for r in reports) == EXPECTED_SUITES


class TestCleanCorpus:
    @pytest.mark.parametrize("name", EXPECTED_SUITES)
    def test_suite_passes_and_checks_something(self, name):
        report = run_suite(name, seed=0, budget=BUDGET)
        assert isinstance(report, SuiteReport)
        assert report.passed, [
            (v.law, v.message) for v in report.violations
        ]
        assert report.checks > 0

    def test_grill_suite_builds_each_grill_once_and_no_document(self, monkeypatch):
        # one grill per filter per distinct carrier: equal random draws
        # share a carrier, so its filters and grills are built once
        grills = Counter()
        documents = []
        corpora = []
        real_grill, real_corpus = laws.grill, laws._grill_corpus

        def counting_grill(a):
            grills[a.lattice] += 1
            return real_grill(a)

        def counting_doc(obj):
            documents.append(obj)
            return structure_to_doc(obj)

        def recorded_corpus(rng, budget):
            corpora.append(real_corpus(rng, budget))
            return corpora[-1]

        monkeypatch.setattr(laws, "grill", counting_grill)
        monkeypatch.setattr(laws, "structure_to_doc", counting_doc)
        monkeypatch.setattr(laws, "_grill_corpus", recorded_corpus)
        report = run_suite("grill", seed=0, budget=10)
        assert report.passed and report.checks == 105
        (corpus,) = corpora
        assert len(corpus) == 15
        assert set(grills) == {lat for _, lat in corpus}
        assert len(grills) == 11
        assert all(calls == lat.n for lat, calls in grills.items())
        assert documents == []

    def test_total_check_count_scales_with_budget(self):
        small = sum(r.checks for r in run_all(budget=5))
        large = sum(r.checks for r in run_all(budget=BUDGET))
        assert large > small


DRAWING_SUITES = ("lattice", "grill", "convergence", "galois-adh", "topology", "kow")


class TestCarrierPool:
    @pytest.fixture
    def drawn(self, monkeypatch):
        """Record every random carrier a suite receives and every carrier
        the pool builds."""
        for name in lattice_fixture_names():
            lattice_fixture(name)  # cached on purpose: only random draws count
        record = {"returned": [], "built": []}
        real_draw, real_build = laws.random_downset_lattice, fixtures.downset_lattice

        def draw(*args, **kwargs):
            lat = real_draw(*args, **kwargs)
            record["returned"].append(lat)
            return lat

        def build(poset, name=None):
            record["built"].append(poset.below)
            return real_build(poset, name)

        monkeypatch.setattr(laws, "random_downset_lattice", draw)
        monkeypatch.setattr(search, "random_downset_lattice", draw)
        monkeypatch.setattr(fixtures, "downset_lattice", build)
        return record

    @pytest.mark.parametrize("name", DRAWING_SUITES)
    def test_one_build_per_distinct_accepted_poset(self, name, drawn):
        run_suite(name, seed=3, budget=120)
        returned = drawn["returned"]
        # the element labels name the down-sets, so they tell the posets apart
        distinct = {lat.elements for lat in returned}
        assert len({id(lat) for lat in returned}) == len(distinct)
        assert len(drawn["built"]) == len(set(drawn["built"])) == len(distinct)
        assert len(distinct) < len(returned)

    def test_search_shares_one_pool_per_call(self, drawn):
        conjecture = parse_conjecture("topological => pretopological")
        result = search.search_counterexample(conjecture, max_lattice=1, budget=60)
        returned = drawn["returned"]
        assert result.outcome == "exhausted" and len(returned) == 60
        distinct = {lat.elements for lat in returned}
        assert len(drawn["built"]) == len(distinct) < len(returned)

    @pytest.mark.parametrize("name", DRAWING_SUITES)
    def test_pool_is_freed_with_the_suite(self, name, drawn, monkeypatch):
        # the random carriers and the random corpus members, structures
        # included, all die with the run: no verdict table outlives it
        members = []
        real_law = SuiteReport._law

        def recording(self, law, witness, *args):
            if witness.get("origin", "").startswith(("random", "monotone")):
                members.extend(
                    weakref.ref(v) for v in witness.values() if not isinstance(v, str)
                )
            real_law(self, law, witness, *args)

        monkeypatch.setattr(SuiteReport, "_law", recording)
        report = run_suite(name, seed=3, budget=120)
        assert report.passed
        refs = [weakref.ref(lat) for lat in drawn["returned"]] + members
        drawn["returned"].clear()
        gc.collect()
        assert refs and all(ref() is None for ref in refs)


def _every_entry_evaluated(monkeypatch):
    """Make every law run on every corpus entry: the key is dropped, so no
    verdict is reused."""
    real_law = SuiteReport._law

    def unkeyed(self, law, witness, evaluate, verdicts=None, key=None):
        real_law(self, law, witness, evaluate)

    monkeypatch.setattr(SuiteReport, "_law", unkeyed)


class TestVerdictReuse:
    @pytest.mark.parametrize("name", EXPECTED_SUITES)
    @pytest.mark.parametrize(
        "seed, budget, inject", [(0, 10, True), (3, 120, False)]
    )
    def test_reports_equal_evaluating_every_entry(
        self, name, seed, budget, inject, monkeypatch
    ):
        shipped = run_suite(name, seed=seed, budget=budget, inject_fault=inject)
        _every_entry_evaluated(monkeypatch)
        every = run_suite(name, seed=seed, budget=budget, inject_fault=inject)
        assert shipped.checks == every.checks
        assert [(v.law, v.message, v.witness) for v in shipped.violations] == [
            (v.law, v.message, v.witness) for v in every.violations
        ]

    @pytest.mark.parametrize("name", DRAWING_SUITES)
    def test_key_holds_everything_the_law_reads(self, name, monkeypatch):
        # every law fails with the documents of the members it was handed,
        # so a verdict reused across entries that differ shows in the report
        real_law = SuiteReport._law

        def revealing(self, law, witness, evaluate, verdicts=None, key=None):
            def reveal():
                members = [laws._doc(v) for v in witness.values() if not isinstance(v, str)]
                return False, json.dumps([evaluate(), members], sort_keys=True)

            real_law(self, law, witness, reveal, verdicts, key)

        monkeypatch.setattr(SuiteReport, "_law", revealing)
        shipped = run_suite(name, seed=3, budget=120)
        _every_entry_evaluated(monkeypatch)
        every = run_suite(name, seed=3, budget=120)
        assert len(shipped.violations) == shipped.checks == every.checks
        assert [(v.law, v.message) for v in shipped.violations] == [
            (v.law, v.message) for v in every.violations
        ]

    @pytest.mark.parametrize("name", DRAWING_SUITES)
    def test_each_law_is_evaluated_once_per_key(self, name, monkeypatch):
        checks, evaluations = Counter(), Counter()
        real_law = SuiteReport._law

        def counting(self, law, witness, evaluate, verdicts=None, key=None):
            def counted():
                evaluations[law, key] += 1
                return evaluate()

            if verdicts is not None:
                checks[law, key] += 1
            real_law(self, law, witness, counted, verdicts, key)

        monkeypatch.setattr(SuiteReport, "_law", counting)
        run_suite(name, seed=3, budget=120, inject_fault=True)
        keyed = set(checks)
        assert keyed and {k: evaluations[k] for k in keyed} == dict.fromkeys(keyed, 1)
        # repeated draws exist, and each is a check that reused a verdict
        assert sum(checks.values()) > len(checks)

    def test_a_raising_completion_fails_every_law_that_needs_it(self, monkeypatch):
        # a fixed point that raises is not kept: each law records its own
        # "evaluation raised" verdict
        def broken(cs, kind):
            raise ValueError(kind)

        monkeypatch.setattr(laws, "s_infinity", broken)
        report = run_suite("convergence", seed=3, budget=5)
        first = report.violations[0].witness["origin"]
        assert [
            (v.law, v.message) for v in report.violations if v.witness["origin"] == first
        ] == [
            ("completion-limit", "evaluation raised ValueError: limit"),
            ("completion-strict", "evaluation raised ValueError: strict"),
            ("completion-pretop", "evaluation raised ValueError: pretop"),
            ("completion-fixed-points", "evaluation raised ValueError: limit"),
        ]
        assert len(report.violations) == 4 * (report.checks // 5)


class TestFaultInjection:
    @pytest.mark.parametrize("name", EXPECTED_SUITES)
    def test_injected_fault_is_detected(self, name):
        report = run_suite(name, seed=0, budget=10, inject_fault=True)
        assert not report.passed
        assert any("injected" in str(v.witness.get("origin", "")) for v in report.violations)

    def test_injected_diamond_fails_the_distributive_law(self):
        # analyze and the literal triple scan agree that M3 is not a coframe
        report = run_suite("lattice", seed=0, budget=10, inject_fault=True)
        hits = [v for v in report.violations if v.law == "distributive"]
        assert [v.witness["origin"] for v in hits] == ["injected-M3"]
        assert hits[0].message == "corpus lattice is not a coframe"

    def test_violations_carry_structured_witnesses(self):
        report = run_suite("grill", seed=0, budget=10, inject_fault=True)
        v = report.violations[0]
        assert isinstance(v, Violation)
        assert v.suite == "grill"
        assert v.law
        assert v.message
        assert isinstance(v.witness, dict)

    def test_moved_cross_checks_are_laws_that_can_fail(self, monkeypatch):
        # the induced adherence axioms (galois-adh) and the uniqueness of the
        # sublocale extension (locale) run once per corpus member
        import coframes.laws as laws

        monkeypatch.setattr(laws, "adherence_violation", lambda lat, tab: ("a", "b"))
        monkeypatch.setattr(laws, "star_extension_unique", lambda sl, ext: (False, "x"))
        galois = run_suite("galois-adh", seed=0, budget=10)
        locale = run_suite("locale", seed=0, budget=10)
        induced = [v for v in galois.violations if v.law == "induced-adherence-axioms"]
        unique = [v for v in locale.violations if v.law == "star-extension-unique"]
        assert [v.witness["origin"] for v in induced] == list(
            convergence_fixture_names()
        ) + [f"random-{i}" for i in range(10)]
        assert {v.witness["origin"] for v in unique} == {
            "SIERP_TOP", "INDISCRETE_TOP", "DISCRETE_TOP", "PX3_TOP"
        }

    @pytest.mark.parametrize("name", EXPECTED_SUITES)
    def test_witnesses_are_documents(self, name):
        # no live object leaks into a violation, and the injected member is
        # recorded as its document (or the fallback when it has none)
        report = run_suite(name, seed=0, budget=10, inject_fault=True)
        for v in report.violations:
            json.dumps(v.witness)
        if name in ("lattice", "grill", "locale"):
            key, member = "lattice", lattice_fixture("M3")
        else:
            key, (_, member) = "structure", laws._injected(name)
        try:
            expected = structure_to_doc(member)
        except Exception:
            expected = {"unserializable": repr(member)}
        injected = [v for v in report.violations if "injected" in v.witness["origin"]]
        assert injected
        assert all(v.witness[key] == expected for v in injected)

    def test_crashing_law_evaluations_are_reported_not_swallowed(self):
        # The corrupted non-distributive carrier makes at least one law
        # evaluation raise; the runner must convert that into a violation.
        report = run_suite("grill", seed=0, budget=10, inject_fault=True)
        assert any("evaluation raised" in v.message for v in report.violations)


class TestDeterminism:
    @pytest.mark.parametrize("name", EXPECTED_SUITES)
    def test_same_seed_same_report(self, name):
        a = run_suite(name, seed=7, budget=15)
        b = run_suite(name, seed=7, budget=15)
        assert a.checks == b.checks
        assert [(v.law, v.message) for v in a.violations] == [
            (v.law, v.message) for v in b.violations
        ]

    def test_seed_changes_random_corpus(self):
        # The grill suite draws random filters; different seeds should not
        # crash and should keep the suite green.
        for seed in (1, 2, 3):
            assert run_suite("grill", seed=seed, budget=20).passed
