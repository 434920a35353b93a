"""Tests for the JSON document layer: serialization, parsing, canonical
form, subset-label handling, and error reporting."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coframes import (
    AdherenceStructure,
    ConvergenceStructure,
    Filter,
    FiniteConvergenceSpace,
    FiniteLattice,
    TopologicalStructure,
    UpSet,
    dualize,
    powerset_lattice,
    pt_top,
)
from coframes.fixtures import (
    FIXTURES,
    adherence_fixture,
    adherence_fixture_names,
    convergence_fixture,
    convergence_fixture_names,
    discrete_structure,
    fixture,
    lattice_fixture,
    lattice_fixture_names,
    space_fixture,
    space_fixture_names,
    topology_fixture,
    topology_fixture_names,
)
from coframes.documents import (
    DOCUMENT_KINDS,
    adherence_from_doc,
    adherence_space_from_doc,
    adherence_space_to_doc,
    adherence_to_doc,
    canonical_json,
    convergence_from_doc,
    convergence_to_doc,
    document_kind,
    filter_from_doc,
    filter_to_doc,
    lattice_from_doc,
    lattice_to_doc,
    load_document,
    space_from_doc,
    space_to_doc,
    structure_from_doc,
    structure_to_doc,
    subset_label,
    subset_mask,
    topological_space_from_doc,
    topological_space_to_doc,
    topology_from_doc,
    topology_to_doc,
    upset_from_doc,
    upset_to_doc,
)
from coframes.duality import (
    FiniteTopologicalSpace,
    pt_space,
    to_adherence,
    top_space_convergence,
)
from coframes.errors import DocumentError, NotALattice
from coframes.lattice import build_lattice, cover_pairs, downset_lattice, poset_from_covers
from coframes.topology import sublocale_counit, sublocale_lattice


class TestCanonicalJson:
    def test_sorted_keys_indent_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": [2, 1]})
        assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'

    def test_unicode_is_not_escaped(self):
        assert "é" in canonical_json({"label": "é"})

    def test_deterministic(self):
        doc = lattice_to_doc(lattice_fixture("PX3"))
        assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


class TestSubsetLabels:
    POINTS = ("b", "a", "c")

    def test_label_sorts_members(self):
        assert subset_label(self.POINTS, 0b111) == "{a,b,c}"
        assert subset_label(self.POINTS, 0b011) == "{a,b}"
        assert subset_label(self.POINTS, 0) == "{}"

    def test_mask_round_trip_all_subsets(self):
        for mask in range(8):
            assert subset_mask(self.POINTS, subset_label(self.POINTS, mask)) == mask

    def test_labels_containing_braces(self):
        points = ("{1}", "{2}")
        label = subset_label(points, 0b11)
        assert label == "{{1},{2}}"
        assert subset_mask(points, label) == 0b11

    def test_labels_containing_commas(self):
        points = ("{0,1}", "{m,1}")
        for mask in range(4):
            label = subset_label(points, mask)
            assert subset_mask(points, label) == mask

    def test_ambiguous_label_set_rejected(self):
        points = ("a", "b", "a,b")
        with pytest.raises(DocumentError, match="ambiguous"):
            subset_mask(points, "{a,b}")

    def test_unknown_member_rejected(self):
        with pytest.raises(DocumentError):
            subset_mask(("a", "b"), "{z}")

    def test_unbraced_label_rejected(self):
        with pytest.raises(DocumentError):
            subset_mask(("a",), "a")

    def test_one_parser_for_documents_and_spaces(self):
        from coframes import documents, lattice

        assert documents.subset_mask is lattice.subset_mask
        assert subset_mask is lattice.subset_mask
        assert not hasattr(documents, "_subset_parses")


class TestLatticeDocuments:
    def test_round_trip_every_fixture(self):
        for name in lattice_fixture_names():
            lat = lattice_fixture(name)
            again = lattice_from_doc(lattice_to_doc(lat))
            assert again.elements == lat.elements
            assert again.up == lat.up
            assert again.name == lat.name

    def test_fixture_name_shorthand(self):
        assert lattice_from_doc("BOOL2") is lattice_fixture("BOOL2")

    def test_powerset_shorthand(self):
        lat = lattice_from_doc({"powerset": ["x", "y"]})
        assert lat.elements == powerset_lattice(("x", "y")).elements

    def test_frame_documents_are_dualized_on_load(self):
        chain = lattice_fixture("CHAIN3")
        doc = lattice_to_doc(chain)
        doc["as"] = "frame"
        flipped = lattice_from_doc(doc)
        assert flipped.label(flipped.bottom) == chain.label(chain.top)
        assert flipped.label(flipped.top) == chain.label(chain.bottom)

    def test_dualize_shorthand_round_trip(self):
        frame = dualize(lattice_fixture("CHAIN3"))
        doc = lattice_to_doc(dualize(frame))
        doc["as"] = "frame"
        again = lattice_from_doc(doc)
        assert again.up == frame.up

    def test_unknown_keys_rejected(self):
        doc = lattice_to_doc(lattice_fixture("CHAIN2"))
        doc["extra"] = 1
        with pytest.raises(DocumentError, match="extra"):
            lattice_from_doc(doc)

    def test_unknown_fixture_name_rejected(self):
        with pytest.raises(DocumentError):
            lattice_from_doc("NOT_A_FIXTURE")

    def test_covers_must_name_declared_elements(self):
        with pytest.raises(DocumentError):
            lattice_from_doc(
                {"name": "X", "elements": ["0", "1"], "covers": [["0", "z"]]}
            )

    def test_non_lattice_poset_rejected(self):
        with pytest.raises((DocumentError, NotALattice)):
            lattice_from_doc(
                {
                    "name": "X",
                    "elements": ["a", "b"],
                    "covers": [],
                }
            )


class TestStructureDocuments:
    def test_convergence_round_trip(self):
        for name in ("SIERP_LIM", "PX3_PRETOP", "CHAIN3_NONCLASSICAL"):
            cs = convergence_fixture(name)
            again = convergence_from_doc(convergence_to_doc(cs))
            assert again.limtab == cs.limtab
            assert again.lattice.elements == cs.lattice.elements

    def test_convergence_table_must_cover_every_element(self):
        doc = convergence_to_doc(convergence_fixture("SIERP_LIM"))
        del doc["lim"]["{}"]
        with pytest.raises(DocumentError, match="missing"):
            convergence_from_doc(doc)

    def test_convergence_table_rejects_unknown_labels(self):
        doc = convergence_to_doc(convergence_fixture("SIERP_LIM"))
        doc["lim"]["{z}"] = "{}"
        with pytest.raises(DocumentError):
            convergence_from_doc(doc)

    def test_adherence_round_trip(self):
        ns = adherence_fixture("PX3_ADH")
        again = adherence_from_doc(adherence_to_doc(ns))
        assert again.nutab == ns.nutab

    def test_topology_round_trip(self):
        ts = topology_fixture("PX3_TOP")
        again = topology_from_doc(topology_to_doc(ts))
        assert again.closed == ts.closed

    def test_topology_duplicate_closed_label_rejected(self):
        doc = topology_to_doc(topology_fixture("SIERP_TOP"))
        doc["closed"] = doc["closed"] + [doc["closed"][0]]
        with pytest.raises(DocumentError, match="twice"):
            topology_from_doc(doc)

    def test_filter_round_trip(self):
        lat = lattice_fixture("BOOL2")
        f = Filter(lat, lat.index("{0}"))
        doc = filter_to_doc(f)
        assert doc == {"filter": "{0}"}
        again = filter_from_doc(doc, lat)
        assert again.generator == f.generator

    def test_upset_round_trip_and_validation(self):
        lat = lattice_fixture("CHAIN3")
        top = lat.top
        u = UpSet(lat, 1 << top)
        doc = upset_to_doc(u)
        again = upset_from_doc(doc, lat)
        assert again.members == u.members
        with pytest.raises(Exception, match="above it is not"):
            upset_from_doc({"upset": [lat.label(lat.bottom)]}, lat)


class TestSpaceDocuments:
    def test_space_round_trip_every_fixture(self):
        for name in (
            "SIERP_SPACE",
            "ONE_POINT_SPACE",
            "EMPTY_SPACE",
            "DISCRETE2_SPACE",
            "PX3_SPACE",
        ):
            space = space_fixture(name)
            again = space_from_doc(space_to_doc(space))
            assert again.points == space.points
            assert again.limtab == space.limtab

    def test_space_subset_keys_use_braced_sorted_labels(self):
        doc = space_to_doc(space_fixture("SIERP_SPACE"))
        assert set(doc["lim"]) == {"{}", "{0}", "{1}", "{0,1}"}

    def test_adherence_space_round_trip(self):
        adh = to_adherence(space_fixture("SIERP_SPACE"))
        again = adherence_space_from_doc(adherence_space_to_doc(adh))
        assert again.adhtab == adh.adhtab

    def test_topological_space_round_trip_with_comma_labels(self):
        sl, _ = sublocale_counit(topology_fixture("SIERP_TOP"))
        tsp = pt_top(sl.canonical_topology())
        assert any("," in p for p in tsp.points)
        again = topological_space_from_doc(topological_space_to_doc(tsp))
        assert again.points == tsp.points
        assert again.closed == tsp.closed

    def test_canonical_space_labels_are_looked_up_not_parsed(self, monkeypatch):
        from coframes import documents

        def refuse(points, label):
            raise AssertionError(f"parsed {label!r}")

        points = tuple("dbca")
        doc = {"points": list(points), "closed": [subset_label(points, m) for m in range(16)]}
        monkeypatch.setattr(documents, "subset_mask", refuse)
        assert topological_space_from_doc(doc).closed == tuple(range(16))
        # a label in any other spelling still goes to the one parser
        doc["closed"][3] = "{d, b}"
        with pytest.raises(AssertionError, match=r"parsed '\{d, b\}'"):
            topological_space_from_doc(doc)

    @pytest.mark.parametrize(
        "points,label", [(("a", "b", "a,b"), "{a,b}"), (("b", "a", "b,a"), "{b,a}")]
    )
    def test_ambiguous_space_labels_are_still_refused(self, points, label):
        # "{b,a}" is the canonical label of {"b,a"} alone, yet also parses
        # as {"b", "a"}: comma labels are never looked up
        assert label in {subset_label(points, m) for m in range(8)}
        with pytest.raises(DocumentError, match="ambiguous"):
            topological_space_from_doc({"points": list(points), "closed": ["{}", label]})

    def test_space_table_must_cover_every_subset(self):
        doc = space_to_doc(space_fixture("SIERP_SPACE"))
        del doc["lim"]["{0}"]
        with pytest.raises(DocumentError, match="missing"):
            space_from_doc(doc)

    def test_comma_labels_that_stay_parseable_round_trip(self):
        space = space_fixture("SIERP_SPACE")
        renamed = type(space)(points=("a", "a,b"), limtab=space.limtab)
        again = space_from_doc(space_to_doc(renamed))
        assert again.points == renamed.points
        assert again.limtab == renamed.limtab

    def test_unreadable_space_labels_refused_on_write(self):
        # {"b,a"} is written "{b,a}", which also parses as {"b", "a"}: each
        # writer refuses the label instead of emitting what its reader refuses
        tsp = FiniteTopologicalSpace(("b", "a", "b,a"), (0, 0b100, 0b111))
        with pytest.raises(DocumentError, match=r"subset label '\{b,a\}' unreadable"):
            topological_space_to_doc(tsp)
        space = top_space_convergence(tsp)
        for write in (space_to_doc, lambda sp: adherence_space_to_doc(to_adherence(sp))):
            with pytest.raises(DocumentError, match=r"'\{b,a\}' unreadable"):
                write(space)
        # the same closed family on points whose labels read back round-trips
        readable = FiniteTopologicalSpace(("b", "a", "a,b,c"), tsp.closed)
        again = topological_space_from_doc(topological_space_to_doc(readable))
        assert (again.points, again.closed) == (readable.points, readable.closed)

    def test_points_the_reader_refuses_are_refused_on_write(self):
        tsp = FiniteTopologicalSpace((" a", "b"), (0, 0b01, 0b11))
        with pytest.raises(DocumentError, match="flanking spaces"):
            topological_space_to_doc(tsp)
        with pytest.raises(DocumentError, match="flanking spaces"):
            space_to_doc(top_space_convergence(tsp))

    def test_points_with_colliding_subset_labels_have_no_powerset(self):
        with pytest.raises(NotALattice, match="one label"):
            FiniteTopologicalSpace(("a", "b", "a,b"), (0, 0b100, 0b111))

    def test_colliding_point_labels_refused_on_write(self):
        space = space_fixture("SIERP_SPACE")
        # With points {a, b, "a,b"} the label "{a,b}" cannot distinguish the
        # two-point subset from the singleton, so writing must fail rather
        # than emit an unreadable document.
        ambiguous = type(space)(points=("a", "b", "a,b"), limtab=(0b111,) * 8)
        with pytest.raises(DocumentError):
            space_to_doc(ambiguous)


# labels from an alphabet of separators, braces, spaces and prefixes of one
# another, so that subset labels can collide or parse two ways
LABEL = st.text(alphabet="ab,{} ", min_size=1, max_size=3)
LABELS = st.one_of(
    st.lists(LABEL, max_size=3, unique=True).map(tuple),
    # two labels and their comma-joined pair, whose subset labels collide
    st.lists(LABEL, min_size=2, max_size=2, unique=True).map(lambda p: (*p, ",".join(p))),
)


def written_and_read(obj, write, read):
    """``read`` of the canonical bytes of ``write(obj)``, or None when the
    writer refuses."""
    try:
        doc = write(obj)
    except DocumentError:
        return None
    return read(json.loads(canonical_json(doc)))


class TestLabelsRoundTrip:
    """No writer emits what its reader refuses: on any labels, each kind
    either reloads from its own document to an equal object or is refused
    with ``NotALattice`` at build time or ``DocumentError`` at write time."""

    @given(LABELS)
    @settings(max_examples=150, deadline=None)
    def test_spaces_reload_or_are_refused(self, points):
        try:
            tsp = FiniteTopologicalSpace(points, tuple(range(1 << len(points))))
        except NotALattice:
            assert len({subset_label(points, m) for m in range(1 << len(points))}) < 1 << len(points)
            return
        space = top_space_convergence(tsp)
        adh = to_adherence(space)
        for obj, write, read, fields in (
            (tsp, topological_space_to_doc, topological_space_from_doc, ("points", "closed")),
            (space, space_to_doc, space_from_doc, ("points", "limtab")),
            (adh, adherence_space_to_doc, adherence_space_from_doc, ("points", "adhtab")),
        ):
            again = written_and_read(obj, write, read)
            if again is not None:
                assert [getattr(again, f) for f in fields] == [getattr(obj, f) for f in fields]

    @given(LABELS)
    @settings(max_examples=150, deadline=None)
    def test_powerset_structures_reload_or_are_refused(self, ground):
        try:
            lat = powerset_lattice(ground)
        except NotALattice:
            assert len({subset_label(ground, m) for m in range(1 << len(ground))}) < 1 << len(ground)
            return
        for side in (lat, lat.dual):
            cs = discrete_structure(side)
            again = written_and_read(cs, convergence_to_doc, convergence_from_doc)
            assert again.lattice is side and again.limtab == cs.limtab


class TestDispatch:
    def test_document_kind_sniffing(self):
        assert document_kind(lattice_to_doc(lattice_fixture("M3"))) == "lattice"
        assert document_kind({"powerset": ["a"]}) == "lattice"
        assert document_kind("CHAIN3") == "lattice"
        cs = convergence_fixture("SIERP_LIM")
        assert document_kind(convergence_to_doc(cs)) == "convergence"
        assert document_kind(adherence_to_doc(adherence_fixture("SIERP_ADH"))) == "adherence"
        assert document_kind(topology_to_doc(topology_fixture("SIERP_TOP"))) == "topology"
        assert document_kind(space_to_doc(space_fixture("SIERP_SPACE"))) == "space"
        assert (
            document_kind(adherence_space_to_doc(to_adherence(space_fixture("SIERP_SPACE"))))
            == "adherence-space"
        )
        tsp = pt_top(topology_fixture("SIERP_TOP"))
        assert document_kind(topological_space_to_doc(tsp)) == "topological-space"

    def test_document_kind_rejects_unrecognized(self):
        with pytest.raises(DocumentError):
            document_kind({"mystery": 1})

    def test_structure_round_trip_via_dispatch(self):
        chain = lattice_fixture("CHAIN3")
        examples = {
            "lattice": lattice_fixture("N5"),
            "convergence": convergence_fixture("PX3_PRETOP"),
            "adherence": adherence_fixture("IDENTITY_ADH_BOOL2"),
            "topology": topology_fixture("INDISCRETE_TOP"),
            "space": space_fixture("DISCRETE2_SPACE"),
            "adherence-space": to_adherence(space_fixture("SIERP_SPACE")),
            "topological-space": pt_top(topology_fixture("PX3_TOP")),
            "filter": Filter(chain, chain.index("m")),
            "upset": UpSet(chain, 1 << chain.index("m") | 1 << chain.index("1")),
        }
        # every kind of the table, so that no kind can be left out
        assert set(DOCUMENT_KINDS) == set(examples)
        for kind, entry in DOCUMENT_KINDS.items():
            obj = examples[kind]
            assert isinstance(obj, entry.cls)
            doc = structure_to_doc(obj)
            assert document_kind(doc) == kind
            again = structure_from_doc(doc)
            assert type(again) is type(obj)
            assert canonical_json(structure_to_doc(again)) == canonical_json(doc)

    @pytest.mark.parametrize(
        "kind", [k for k in DOCUMENT_KINDS if k not in ("filter", "upset", "lattice")]
    )
    def test_readers_need_exactly_their_two_keys(self, kind):
        first, second = DOCUMENT_KINDS[kind].keys
        message = f'^{kind} document needs exactly "{first}" and "{second}"$'
        with pytest.raises(DocumentError, match=message):
            DOCUMENT_KINDS[kind].read({first: [], second: [], "extra": 1})

    def test_filter_dispatch_embeds_lattice(self):
        lat = lattice_fixture("BOOL2")
        doc = structure_to_doc(Filter(lat, lat.index("{1}")))
        assert document_kind(doc) == "filter"
        again = structure_from_doc(doc)
        assert isinstance(again, Filter)
        assert again.lattice.elements == lat.elements

    def test_load_document_returns_kind_and_object(self):
        text = canonical_json(convergence_to_doc(convergence_fixture("SIERP_LIM")))
        kind, obj = load_document(text)
        assert kind == "convergence"
        assert isinstance(obj, ConvergenceStructure)

    def test_load_document_rejects_malformed_json(self):
        with pytest.raises(DocumentError, match="JSON"):
            load_document("{not json")

    def test_write_read_write_is_byte_identical(self):
        samples = [
            structure_to_doc(convergence_fixture("CHAIN3_PRETOP_GAP")),
            structure_to_doc(topology_fixture("PX3_TOP")),
            structure_to_doc(space_fixture("PX3_SPACE")),
            structure_to_doc(adherence_fixture("VOID_ADH_BOOL2")),
        ]
        for doc in samples:
            first = canonical_json(doc)
            _, obj = load_document(first)
            second = canonical_json(structure_to_doc(obj))
            assert second == first


ACCESSORS = {
    "lattice": (lattice_fixture, lattice_fixture_names, FiniteLattice),
    "convergence": (convergence_fixture, convergence_fixture_names, ConvergenceStructure),
    "adherence": (adherence_fixture, adherence_fixture_names, AdherenceStructure),
    "topology": (topology_fixture, topology_fixture_names, TopologicalStructure),
    "space": (space_fixture, space_fixture_names, FiniteConvergenceSpace),
}


class TestFixtureTable:
    def test_accessors_read_the_table(self):
        assert list(FIXTURES) == list(ACCESSORS)
        for kind, (get, names, cls) in ACCESSORS.items():
            assert names() == tuple(FIXTURES[kind])
            for name in names():
                assert isinstance(get(name), cls), name
                assert get(name) is get(name) is fixture(kind, name)

    def test_names_are_unique_across_kinds(self):
        names = [name for builders in FIXTURES.values() for name in builders]
        assert len(names) == len(set(names)) == 34

    def test_unknown_names_are_refused_after_every_fixture_is_built(self):
        # the built fixtures are kept by name: a name of another kind must
        # not be served from there
        for kind, (get, names, _) in ACCESSORS.items():
            for name in names():
                get(name)
        for kind, (get, _, _) in ACCESSORS.items():
            for name in ("NOPE", *(n for k in FIXTURES if k != kind for n in FIXTURES[k])):
                with pytest.raises(DocumentError) as err:
                    get(name)
                assert str(err.value) == f"unknown {kind} fixture {name!r}"
        with pytest.raises(DocumentError, match="^unknown lattice fixture 'SIERP_LIM'$"):
            lattice_fixture("SIERP_LIM")

    def test_px3_is_bool3(self):
        assert lattice_fixture("PX3") is lattice_fixture("BOOL3")


def _powersets_and_duals():
    for k in range(7):
        lat = powerset_lattice(tuple(f"g{i}" for i in range(k)))
        yield lat, {"powerset": [f"g{i}" for i in range(k)]}
        yield dualize(lat), {"powerset": [f"g{i}" for i in range(k)], "as": "frame"}


class TestShorthandNormalization:
    def test_powersets_and_their_duals_echo_the_shorthand(self):
        kind, obj = load_document('{"powerset": ["1", "2"]}')
        assert kind == "lattice"
        assert structure_to_doc(obj) == {"powerset": ["1", "2"]}
        for lat, doc in _powersets_and_duals():
            assert lattice_to_doc(lat) == doc, lat
            assert lattice_from_doc(json.loads(canonical_json(doc))) is lat
        for name in ("BOOL1", "BOOL2", "BOOL3", "BOOL4", "PX3"):
            lat = lattice_fixture(name)
            for side in (lat, dualize(lat)):
                assert "powerset" in lattice_to_doc(side), name
                assert lattice_from_doc(lattice_to_doc(side)) is side

    def test_covers_form_is_the_oracle_of_the_shorthand(self):
        # the shorthand names the carrier whose cover pairs it would list
        for lat, _ in _powersets_and_duals():
            rebuilt = build_lattice(lat.name, lat.elements, cover_pairs(lat))
            assert (rebuilt.up, rebuilt.down) == (lat.up, lat.down), lat

    def test_other_carriers_keep_the_covers_form(self):
        bool3 = lattice_fixture("BOOL3")
        covers_p3 = lattice_from_doc(
            {
                "name": bool3.name,
                "elements": list(bool3.elements),
                "covers": [list(pair) for pair in cover_pairs(bool3)],
            }
        )
        subloc = sublocale_lattice(dualize(bool3)).lattice
        downsets = downset_lattice(poset_from_covers(("a", "b", "c"), [("a", "c")]))
        for lat in (covers_p3, subloc, dualize(subloc), downsets):
            doc = lattice_to_doc(lat)
            assert set(doc) == {"name", "elements", "covers"}, lat
            again = lattice_from_doc(doc)
            assert (again.elements, again.up) == (lat.elements, lat.up)
            assert canonical_json(lattice_to_doc(again)) == canonical_json(doc)

    def test_pt_space_of_convergence_serializes(self):
        space = pt_space(convergence_fixture("PX3_PRETOP"))
        again = space_from_doc(space_to_doc(space))
        assert again.limtab == space.limtab
        assert again.points == ("{1}", "{2}", "{3}")
