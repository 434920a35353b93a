"""Tests for the conjecture grammar, the small-carrier sweep, and the
counterexample search."""

import pytest

from coframes import analyze
from coframes.adherence import adh0_table, adh_table
from coframes.convergence import (
    CLASS_COST_ORDER,
    ClassFlags,
    ConvergenceStructure,
    classify,
)
from coframes.documents import convergence_from_doc
from coframes.errors import ConjectureError
from coframes.fixtures import enumerate_antitone_tables
from coframes.search import (
    PREDICATES,
    Conjecture,
    parse_conjecture,
    search_counterexample,
    small_coframes,
)


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

    def test_no_duplicate_carriers_up_to_isomorphism_signature(self):
        seen = set()
        for lat in small_coframes(5):
            signature = tuple(sorted(lat.up))
            assert signature not in seen
            seen.add(signature)

    def test_size_bound_respected(self):
        assert max(lat.n for lat in small_coframes(4)) == 4


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
        result = search_counterexample(
            parse_conjecture(true_conjecture), max_lattice=4, budget=50
        )
        assert result.outcome == "exhausted"
        assert result.counterexample is None
        assert result.witness_document() is None
        assert result.lattices_tested == 5
        assert result.structures_tested > 100

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
