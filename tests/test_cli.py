"""End-to-end tests of the command-line interface: exit codes, report
shapes, document piping, idempotence of modifications, and JSON mode."""

import io
import json
import random
import time

import pytest

from coframes.cli import main
from coframes.documents import (
    canonical_json,
    convergence_from_doc,
    load_document,
    structure_to_doc,
)
from coframes.convergence import classify, s1
from coframes.fixtures import random_antitone_table
from coframes.lattice import build_lattice, powerset_lattice, subset_label
from coframes.search import _EXHAUSTIVE_STRUCTURE_CAP


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture(capsys, tmp_path, name, filename):
    code, out, _ = run(capsys, ["fixtures", "--name", name])
    assert code == 0
    path = tmp_path / filename
    path.write_text(out, encoding="utf-8")
    return path


class TestFixturesCommand:
    def test_lists_every_kind(self, capsys):
        code, out, _ = run(capsys, ["fixtures"])
        assert code == 0
        for kind in ("lattice:", "convergence:", "adherence:", "topology:", "space:"):
            assert kind in out
        assert "SIERP_LIM" in out and "M3" in out

    def test_kind_filter(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "--kind", "topology"])
        assert code == 0
        assert "topology:" in out
        assert "lattice:" not in out

    def test_named_fixture_document_goes_to_stdout(self, capsys):
        code, out, err = run(capsys, ["fixtures", "--name", "SIERP_TOP"])
        assert code == 0
        doc = json.loads(out)  # stdout is pure JSON
        assert set(doc) == {"lattice", "closed"}
        assert "outcome: pass" in err  # the report went to stderr

    def test_unknown_fixture_name(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "--name", "NOPE"])
        assert code == 2
        assert "unknown fixture" in out

    def test_listing_order_is_pinned(self, capsys):
        code, out, _ = run(capsys, ["fixtures"])
        assert code == 0
        assert out.splitlines() == ["outcome: pass"] + [
            f"{kind}: {' '.join(names)}" for kind, names in LISTING.items()
        ]
        code, out, _ = run(capsys, ["fixtures", "--json"])
        report = json.loads(out)
        assert {kind: report[kind] for kind in LISTING} == LISTING
        for kind, names in LISTING.items():
            code, out, _ = run(capsys, ["fixtures", "--kind", kind, "--json"])
            report = json.loads(out)
            others = set(LISTING) - {kind}
            assert code == 0 and report[kind] == names and not others & set(report)

    def test_kind_choices_are_the_listed_kinds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fixtures", "--kind", "filter"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        positions = [err.index(kind) for kind in LISTING]
        assert positions == sorted(positions)


# `coframes fixtures`: the kinds in order, each with its names in order
LISTING = {
    "lattice": [
        "CHAIN1", "CHAIN2", "CHAIN3", "CHAIN4", "CHAIN5", "BOOL1", "BOOL2",
        "BOOL3", "PX3", "BOOL4", "M3", "N5", "V5",
    ],
    "convergence": [
        "SIERP_LIM", "DISCRETE_BOOL2", "CHAOTIC_BOOL2", "PX3_PRETOP",
        "CHAIN3_NONCLASSICAL", "CHAIN3_PRETOP_GAP",
    ],
    "adherence": ["SIERP_ADH", "PX3_ADH", "IDENTITY_ADH_BOOL2", "VOID_ADH_BOOL2"],
    "topology": ["SIERP_TOP", "INDISCRETE_TOP", "DISCRETE_TOP", "PX3_TOP"],
    "space": [
        "SIERP_SPACE", "ONE_POINT_SPACE", "EMPTY_SPACE", "DISCRETE2_SPACE",
        "CHAOTIC2_SPACE", "NONLIMIT2_SPACE", "PX3_SPACE",
    ],
}


class TestValidateCommand:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("BOOL2", "lattice"),
            ("SIERP_LIM", "convergence"),
            ("PX3_ADH", "adherence"),
            ("PX3_TOP", "topology"),
            ("DISCRETE2_SPACE", "space"),
        ],
    )
    def test_valid_documents_pass(self, capsys, tmp_path, name, kind):
        path = write_fixture(capsys, tmp_path, name, "doc.json")
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 0
        assert f"kind: {kind}" in out

    def test_non_distributive_lattice_passes_but_is_flagged(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "M3", "m3.json")
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 0
        assert "distributive: False" in out

    def test_large_non_distributive_lattice_passes_but_is_flagged(
        self, capsys, monkeypatch
    ):
        # a 16-chain under the diamond M3: 20 elements, analysed exactly
        chain = [f"c{i}" for i in range(16)]
        covers = list(zip(chain, chain[1:]))
        covers += [("c15", x) for x in "abc"] + [(x, "t") for x in "abc"]
        lat = build_lattice("CHAIN16+M3", chain + ["a", "b", "c", "t"], covers)
        doc = canonical_json(structure_to_doc(lat))
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, _ = run(capsys, ["validate", "-", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["elements"] == 20
        assert report["distributive"] is False

    def test_stdin_dash(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["fixtures", "--name", "CHAIN3"])
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run(capsys, ["validate", "-"])
        assert code == 0
        assert "kind: lattice" in out

    def test_malformed_json_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 2
        assert "outcome: error" in out

    def test_incomplete_table_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"lattice": "CHAIN3", "lim": {"0": "1"}}', encoding="utf-8"
        )
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 2
        assert "missing" in out

    def test_powerset_with_colliding_labels_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "collide.json"
        path.write_text('{"powerset": ["a", "b", "a,b"]}', encoding="utf-8")
        for command in ("validate", "classify"):
            code, out, _ = run(capsys, [command, str(path)])
            assert code == 2
            assert "give two subsets one label" in out

    def test_missing_file_is_a_config_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["validate", str(tmp_path / "absent.json")])
        assert code == 2

    def test_invalid_adherence_document_is_rejected(self, capsys, monkeypatch):
        # bottom adheres to top, and the adherence drops from {0} to {0,1}
        doc = {
            "lattice": "BOOL2",
            "nu": {"{}": "{0,1}", "{0}": "{0,1}", "{1}": "{1}", "{0,1}": "{0}"},
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run(capsys, ["validate", "-", "--json"])
        assert code == 2
        assert "adherence.monotone" in json.loads(out)["message"]

    @pytest.mark.parametrize("k", [16, 30])
    def test_oversized_space_document_fails_fast(self, capsys, monkeypatch, k):
        # one entry is listed; the table of 2**k entries must never be built
        points = [f"p{i}" for i in range(k)]
        doc = {"points": points, "lim": {"{}": "{" + ",".join(points) + "}"}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["validate", "-", "--json"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        message = json.loads(out)["message"]
        assert f"{k} points" in message
        assert len(message.encode()) < 1024

    def test_oversized_covers_document_is_refused_before_any_row(self, capsys, monkeypatch):
        from coframes import lattice

        def refuse(n, pairs):
            raise AssertionError(f"rows built for {n} elements")

        monkeypatch.setattr(lattice, "_closure_from_covers", refuse)
        chain = [f"c{i}" for i in range(1025)]
        covers = [list(pair) for pair in zip(chain, chain[1:])]
        doc = {"name": "CHAIN1025", "elements": chain, "covers": covers}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run(capsys, ["validate", "-", "--json"])
        assert code == 2
        message = json.loads(out)["message"]
        assert "1025 elements exceed the covers budget of 1024" in message
        # one element fewer goes on to build its rows
        with pytest.raises(AssertionError, match="rows built for 1024 elements"):
            build_lattice("CHAIN1024", chain[:-1], covers[:-1])

    def test_missing_space_entries_are_counted_not_listed(self, capsys, monkeypatch):
        points = [f"p{i}" for i in range(12)]
        doc = {"points": points, "lim": {"{}": "{" + ",".join(points) + "}"}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run(capsys, ["validate", "-", "--json"])
        assert code == 2
        message = json.loads(out)["message"]
        assert "missing 4095 entries" in message
        assert len(message.encode()) < 1024

    def test_missing_structure_entries_are_counted_not_listed(self, capsys, monkeypatch):
        points = [f"p{i}" for i in range(12)]
        top = "{" + ",".join(sorted(points)) + "}"
        doc = {"lattice": {"powerset": points}, "lim": {"{}": top}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run(capsys, ["validate", "-", "--json"])
        assert code == 2
        message = json.loads(out)["message"]
        assert "missing 4095 entries" in message
        assert len(message.encode()) < 1024


class TestTopologyDocuments:
    def test_discrete_topology_on_a_256_element_powerset(self, capsys, monkeypatch):
        # every subset of eight points is closed: validation folds one
        # closure per atom, and the strength check builds nothing
        ground = list("abcdefgh")
        doc = {
            "lattice": {"powerset": ground},
            "closed": [subset_label(ground, m) for m in range(1 << 8)],
        }
        for command in ("validate", "classify"):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
            code, out, _ = run(capsys, [command, "-", "--json"])
            report = json.loads(out)
            assert code == 0 and report["outcome"] == "pass", command
        assert report["strong"] is True
        assert len(report["closed"]) == 256

    def test_non_sublattice_is_refused_with_its_pair(self, capsys, monkeypatch):
        doc = {
            "lattice": {"powerset": ["a", "b", "c"]},
            "closed": ["{}", "{a}", "{b}", "{a,b,c}"],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run(capsys, ["validate", "-", "--json"])
        assert code == 2
        report = json.loads(out)
        assert report["outcome"] == "error"
        assert "join of '{a}' and '{b}' is '{a,b}', outside the subset" in report["message"]

    def test_discrete_space_on_eight_points(self, capsys, monkeypatch):
        # a topological space is checked as a topology on the powerset of
        # its points
        points = list("abcdefgh")
        doc = {"points": points, "closed": [subset_label(points, m) for m in range(1 << 8)]}
        for command in ("validate", "classify"):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
            code, out, _ = run(capsys, [command, "-", "--json"])
            assert code == 0 and json.loads(out)["outcome"] == "pass", command

    def test_space_with_a_non_lattice_family_is_refused_with_its_pair(
        self, capsys, monkeypatch
    ):
        doc = {"points": ["a", "b", "c"], "closed": ["{}", "{a}", "{b}", "{a,b,c}"]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run(capsys, ["validate", "-", "--json"])
        assert code == 2
        report = json.loads(out)
        assert report["outcome"] == "error"
        assert "space.closed" in report["message"]
        assert "join of '{a}' and '{b}' is '{a,b}', outside the subset" in report["message"]


class TestClassifyCommand:
    def test_sierpinski_flag_line(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "SIERP_LIM", "s.json")
        code, out, _ = run(capsys, ["classify", str(path)])
        assert code == 0
        assert "flags: classical limit strict pretopological centered topological" in out

    def test_convergence_reports_points_and_closed_sets(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "PX3_PRETOP", "p.json")
        code, out, _ = run(capsys, ["classify", str(path)])
        assert code == 0
        assert "points: {1} {2} {3}" in out
        assert "closed:" in out

    def test_lattice_report(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "N5", "n5.json")
        code, out, _ = run(capsys, ["classify", str(path)])
        assert code == 0
        assert "distributive: False" in out
        assert "join_primes:" in out

    def test_space_report(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "SIERP_SPACE", "sp.json")
        code, out, _ = run(capsys, ["classify", str(path)])
        assert code == 0
        assert "kind: space" in out
        assert "flags:" in out


class TestModifyCommand:
    def test_topological_modification_of_the_pretopological_gap(
        self, capsys, tmp_path
    ):
        path = write_fixture(capsys, tmp_path, "PX3_PRETOP", "px3.json")
        code, out, err = run(capsys, ["modify", str(path), "--kind", "top"])
        assert code == 0
        assert "changed: True" in err
        modified = convergence_from_doc(json.loads(out))
        assert classify(modified).flags()["topological"]

    def test_idempotent_and_byte_identical(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "PX3_PRETOP", "px3.json")
        _, first, _ = run(capsys, ["modify", str(path), "--kind", "top"])
        out_path = tmp_path / "top.json"
        out_path.write_text(first, encoding="utf-8")
        code, second, err = run(capsys, ["modify", str(out_path), "--kind", "top"])
        assert code == 0
        assert "changed: False" in err
        assert second == first

    @pytest.mark.parametrize("kind", ["lim", "strict", "pretop", "top"])
    def test_all_kinds_produce_valid_documents(self, capsys, tmp_path, kind):
        path = write_fixture(capsys, tmp_path, "DISCRETE_BOOL2", "d.json")
        code, out, _ = run(capsys, ["modify", str(path), "--kind", kind])
        assert code == 0
        retained_kind, obj = load_document(out)
        assert retained_kind == "convergence"
        assert canonical_json(json.loads(out)) == out

    def test_modify_rejects_non_convergence_documents(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "SIERP_TOP", "t.json")
        code, out, _ = run(capsys, ["modify", str(path), "--kind", "top"])
        assert code == 2
        assert "convergence" in out

    def test_family_completion_on_a_32_element_powerset(self, capsys, monkeypatch):
        # P(5): the family step used to refuse carriers above 20 elements
        ground = list("abcde")
        lat = powerset_lattice(tuple(ground))
        tab = random_antitone_table(random.Random(5), lat)
        label = lambda m: subset_label(ground, m)  # noqa: E731
        doc = {"lattice": {"powerset": ground}, "lim": {label(s): label(tab[s]) for s in range(lat.n)}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run(capsys, ["modify", "-", "--json", "--kind", "pretop"])
        assert code == 0
        result = convergence_from_doc(json.loads(out)["document"])
        assert result.lattice.n == 32
        assert classify(result).pretopological
        assert s1(result, "pretop").limtab == result.limtab

    def test_kind_is_required(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "SIERP_LIM", "s.json")
        with pytest.raises(SystemExit) as exc:
            main(["modify", str(path)])
        assert exc.value.code == 2


class TestPtCommand:
    def test_convergence_to_space(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "PX3_PRETOP", "px3.json")
        code, out, err = run(capsys, ["pt", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == ["{1}", "{2}", "{3}"]
        assert "kind: space" in err

    def test_roundtrip_reports_eta_isomorphism(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "PX3_PRETOP", "px3.json")
        code, _, err = run(capsys, ["pt", str(path), "--roundtrip"])
        assert code == 0
        assert "eta: isomorphism" in err

    def test_adherence_structure_gives_adherence_space(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "PX3_ADH", "adh.json")
        code, out, err = run(capsys, ["pt", str(path), "--roundtrip"])
        assert code == 0
        assert set(json.loads(out)) == {"points", "nu"}
        assert "eta: isomorphism" in err

    def test_topology_gives_topological_space(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "PX3_TOP", "top.json")
        code, out, err = run(capsys, ["pt", str(path), "--roundtrip"])
        assert code == 0
        assert set(json.loads(out)) == {"points", "closed"}
        assert "eta: isomorphism" in err

    def test_pt_output_validates(self, capsys, tmp_path, monkeypatch):
        path = write_fixture(capsys, tmp_path, "SIERP_LIM", "s.json")
        _, out, _ = run(capsys, ["pt", str(path)])
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run(capsys, ["validate", "-"])
        assert code == 0
        assert "kind: space" in out

    def test_pt_rejects_plain_lattices(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "BOOL2", "b.json")
        code, _, _ = run(capsys, ["pt", str(path)])
        assert code == 2


class TestLawsCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["laws", "--suite", "grill", "--budget", "20"])
        assert code == 0
        assert "suite grill:" in out
        assert "0 violations" in out

    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, ["laws", "--all", "--budget", "15"])
        assert code == 0
        for name in ("lattice", "grill", "convergence", "galois-adh", "topology", "kow", "locale"):
            assert f"suite {name}:" in out

    def test_injected_fault_exits_one_with_witness(self, capsys):
        code, out, _ = run(
            capsys, ["laws", "--suite", "topology", "--inject-fault", "--budget", "10"]
        )
        assert code == 1
        assert "outcome: violation" in out

    def test_injected_fault_in_json_mode(self, capsys):
        code, out, _ = run(
            capsys,
            ["laws", "--suite", "kow", "--inject-fault", "--budget", "10", "--json"],
        )
        assert code == 1
        report = json.loads(out)
        assert report["outcome"] == "violation"
        assert report["witness"]["suite"] == "kow"
        assert report["witness"]["law"]

    def test_suite_choice_is_validated_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["laws", "--suite", "nonsense"])
        assert exc.value.code == 2


class TestSearchCommand:
    def test_counterexample_exits_one(self, capsys):
        code, out, _ = run(
            capsys,
            ["search", "--conjecture", "centered & pretopological => topological"],
        )
        assert code == 1
        assert "origin: fixture:PX3_PRETOP" in out
        assert "witness:" in out

    def test_witness_in_json_mode_is_recheckable(self, capsys):
        code, out, _ = run(
            capsys,
            ["search", "--conjecture", "strict => centered", "--json"],
        )
        assert code == 1
        report = json.loads(out)
        rebuilt = convergence_from_doc(report["witness"]["structure"])
        flags = classify(rebuilt).flags()
        assert flags["strict"] and not flags["centered"]

    def test_true_conjecture_exhausts_and_exits_zero(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "search",
                "--conjecture",
                "topological => pretopological",
                "--max-lattice",
                "4",
                "--budget",
                "30",
            ],
        )
        assert code == 0
        assert "exhausted: True" in out

    @pytest.mark.parametrize(
        "conjecture",
        ["pretopological => strict & limit", "topological => pretopological"],
    )
    def test_every_carrier_up_to_nine_elements_is_exhausted(self, capsys, conjecture):
        code, out, _ = run(
            capsys,
            ["search", "--conjecture", conjecture, "--max-lattice", "9", "--json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["exhausted"] is True
        # 1 + 1 + 1 + 2 + 3 + 5 + 8 + 15 + 26 distributive lattices (A006982)
        assert report["lattices_tested"] == 62
        assert report["structures_tested"] < _EXHAUSTIVE_STRUCTURE_CAP

    def test_bad_conjecture_is_a_config_error(self, capsys):
        code, out, _ = run(capsys, ["search", "--conjecture", "strict => bogus"])
        assert code == 2
        assert "unknown predicate" in out

    def test_seed_determinism(self, capsys):
        argv = ["search", "--conjecture", "strict => centered", "--seed", "9", "--json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        a, b = json.loads(first), json.loads(second)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b


# one document of each kind; the two point-side kinds without fixtures are
# the spaces of points of an adherence and a topology fixture
PAYLOAD_DOCUMENTS = {
    "lattice": ("fixture", "N5"),
    "convergence": ("fixture", "SIERP_LIM"),
    "adherence": ("fixture", "SIERP_ADH"),
    "topology": ("fixture", "SIERP_TOP"),
    "space": ("fixture", "SIERP_SPACE"),
    "adherence-space": ("pt", "SIERP_ADH"),
    "topological-space": ("pt", "SIERP_TOP"),
    "filter": ("literal", {"lattice": {"powerset": ["a", "b"]}, "filter": "{a}"}),
    "upset": ("literal", {"lattice": "CHAIN3", "upset": ["m", "1"]}),
}

# the payload keys of each report, in the order the human mode prints them
CLASSIFY_PAYLOADS = {
    "lattice": [
        "kind", "elements", "distributive", "spatial", "prime_continuous",
        "complemented", "join_primes", "meet_primes",
    ],
    "convergence": ["kind", "flags", "points", "quasi_closed", "closed"],
    "adherence": ["kind", "flags", "quasi_closed", "closed"],
    "topology": ["kind", "flags", "closed", "strong"],
    "space": ["kind", "flags", "points"],
    "adherence-space": ["kind", "flags", "points"],
    "topological-space": ["kind", "flags", "points"],
    "filter": ["kind", "generator", "proper"],
    "upset": ["kind", "members"],
}
PT_KINDS = {
    "convergence": "space",
    "adherence": "adherence-space",
    "topology": "topological-space",
}


class TestPayloads:
    @pytest.fixture
    def document(self, capsys, tmp_path):
        def write(kind):
            source, value = PAYLOAD_DOCUMENTS[kind]
            if source == "fixture":
                return write_fixture(capsys, tmp_path, value, "doc.json")
            if source == "literal":
                text = canonical_json(value)
            else:
                source_path = write_fixture(capsys, tmp_path, value, "source.json")
                code, text, _ = run(capsys, ["pt", str(source_path)])
                assert code == 0
            path = tmp_path / "doc.json"
            path.write_text(text, encoding="utf-8")
            return path

        return write

    def payload(self, capsys, argv, stream="out"):
        """The report's payload keys: as a set from --json, in order from
        the human lines (which leave out the emitted document)."""
        code, out, _ = run(capsys, argv + ["--json"])
        report = json.loads(out)
        assert code == 0 and report["outcome"] == "pass"
        code, out, err = run(capsys, argv)
        human = [line.split(":")[0] for line in (out if stream == "out" else err).splitlines()]
        assert code == 0 and human[0] == "outcome"
        return report, set(report) - {"command", "outcome", "elapsed_ms"}, human[1:]

    @pytest.mark.parametrize("kind", list(PAYLOAD_DOCUMENTS))
    def test_classify_payload(self, capsys, document, kind):
        report, keys, order = self.payload(capsys, ["classify", str(document(kind))])
        assert report["kind"] == kind
        assert order == CLASSIFY_PAYLOADS[kind] and keys == set(order)

    @pytest.mark.parametrize("kind", list(PAYLOAD_DOCUMENTS))
    def test_validate_payload(self, capsys, document, kind):
        report, keys, order = self.payload(capsys, ["validate", str(document(kind))])
        expected = ["kind"]
        if kind == "lattice":
            expected += ["elements", "distributive", "complemented"]
        assert report["kind"] == kind
        assert order == expected and keys == set(order) | {"document"}
        assert load_document(canonical_json(report["document"]))[0] == kind

    @pytest.mark.parametrize("kind", list(PT_KINDS))
    def test_pt_payload(self, capsys, document, kind):
        path = str(document(kind))
        report, keys, order = self.payload(capsys, ["pt", path, "--roundtrip"], "err")
        assert report["kind"] == PT_KINDS[kind]
        assert order == ["kind", "points", "eta"] and keys == set(order) | {"document"}
        assert load_document(canonical_json(report["document"]))[0] == PT_KINDS[kind]


class TestJsonMode:
    def test_report_shape(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "SIERP_LIM", "s.json")
        code, out, _ = run(capsys, ["classify", str(path), "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == ["classify", str(path), "--json"]
        assert report["outcome"] == "pass"
        assert "elapsed_ms" in report
        assert report["flags"]["topological"] is True

    def test_json_output_is_canonical(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "CHAIN3", "c.json")
        _, out, _ = run(capsys, ["validate", str(path), "--json"])
        assert canonical_json(json.loads(out)) == out

    def test_emitted_documents_revalidate_byte_identically(
        self, capsys, tmp_path, monkeypatch
    ):
        # write -> read -> write must be byte-identical for every fixture
        _, out, _ = run(capsys, ["fixtures", "--json"])
        listing = json.loads(out)
        names = [name for kind in LISTING for name in listing[kind]]
        assert len(names) == 34
        for name in names:
            code, out, _ = run(capsys, ["fixtures", "--name", name])
            assert code == 0, name
            kind, obj = load_document(out)
            assert canonical_json(structure_to_doc(obj)) == out, name


class TestRepeatedCalls:
    def test_consecutive_calls_share_no_state(self, capsys, tmp_path):
        # the parser is built once; each call must still see only its own flags
        path = write_fixture(capsys, tmp_path, "SIERP_LIM", "s.json")
        code, out, _ = run(capsys, ["classify", str(path), "--json"])
        assert code == 0 and json.loads(out)["flags"]["topological"] is True
        code, out, _ = run(capsys, ["classify", str(path)])
        assert code == 0 and out.startswith("outcome: pass")
        code, out, err = run(capsys, ["modify", str(path), "--kind", "strict"])
        assert code == 0 and "modification: strict" in err
        code, out, _ = run(capsys, ["laws", "--suite", "grill", "--budget", "5", "--json"])
        report = json.loads(out)
        assert code == 0 and list(report["suites"]) == ["grill"]
        code, out, _ = run(capsys, ["fixtures", "--kind", "space"])
        assert code == 0 and "lattice:" not in out
        code, out, _ = run(capsys, ["fixtures"])
        assert code == 0 and "lattice:" in out
        code, out, _ = run(
            capsys, ["search", "--conjecture", "strict => centered", "--seed", "9", "--json"]
        )
        assert code == 1 and json.loads(out)["command"][-3:] == ["--seed", "9", "--json"]
        code, out, _ = run(capsys, ["search", "--conjecture", "strict => centered", "--json"])
        assert code == 1 and json.loads(out)["command"][-1] == "--json"

    def test_bad_argument_still_exits_two_between_calls(self, capsys, tmp_path):
        path = write_fixture(capsys, tmp_path, "SIERP_LIM", "s.json")
        for argv in (["modify", str(path)], ["laws", "--suite", "nonsense"], ["bogus"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            capsys.readouterr()
            code, _, _ = run(capsys, ["validate", str(path)])
            assert code == 0
