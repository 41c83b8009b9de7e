from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from wondersys import (
    Color,
    DocumentError,
    Functional,
    LatticeVector,
    RootSystemError,
    SphericalSystem,
    build_root_system,
    document_to_system,
    dumps,
    loads,
    localize,
    system_to_document,
)
from wondersys.rootlat import MAX_RANK
from wondersys.catalog import catalog_entries, catalog_entry

from documentoracle import oracle_dumps, writer_edge_cases
from mutations import mutation_cases
from randsys import doubled_root_a1, random_systems, wide_systems


class TestRoundTrip:
    def test_catalog_round_trips(self):
        for entry in catalog_entries():
            assert loads(dumps(entry.system)) == entry.system, entry.name

    def test_dumps_is_deterministic(self):
        s = catalog_entry("group-a1a1").system
        assert dumps(s) == dumps(s)

    def test_half_values_encoded_as_strings(self):
        from fractions import Fraction

        from wondersys import Color, Functional, LatticeVector, SphericalSystem, build_root_system

        rs = build_root_system([("A", 1)])
        s = SphericalSystem(
            rs,
            [LatticeVector({"a1": 2})],
            [Color("D", frozenset({"a1"}), Functional([Fraction(3, 2)]))],
        )
        doc = system_to_document(s)
        assert doc["colors"][0]["phi"] == ["3/2"]
        assert loads(dumps(s)) == s

    def test_integer_values_stay_integers(self):
        doc = system_to_document(doubled_root_a1())
        assert doc["colors"][0]["phi"] == [2]

    def test_localized_system_serializes_with_canonical_labels(self):
        s = catalog_entry("group-a1a1").system
        doc = system_to_document(localize(s, {"a2"}))
        assert doc["spherical_roots"] == [{"coeffs": {"a1": 1}}]
        assert {c["id"] for c in doc["colors"]} == {"Dp", "D2m"}


def _with_coatoms(systems):
    for s in systems:
        yield s
        labels = frozenset(s.rs.simple_roots)
        for lab in s.rs.simple_roots:
            yield localize(s, labels - {lab})


def _writer_corpus():
    systems = [e.system for e in catalog_entries()]
    systems += random_systems(5, 200, 8) + wide_systems(7, 20)
    yield from _with_coatoms(systems)
    for _, system, _ in mutation_cases():
        yield system


class TestWriterOracle:
    """`dumps` writes the bytes json's encoder writes for the dict document."""

    def test_corpus(self):
        count = 0
        for s in _writer_corpus():
            text = dumps(s)
            assert text == oracle_dumps(s), s
            assert json.loads(text) == system_to_document(s), s
            count += 1
        assert count > 1500

    @pytest.mark.parametrize(
        "system", [pytest.param(system, id=name) for name, system in writer_edge_cases()]
    )
    def test_edge_case(self, system):
        for s in _with_coatoms([system]):
            text = dumps(s)
            assert text == oracle_dumps(s)
            assert json.loads(text) == system_to_document(s)

    def test_edge_cases_reach_the_rare_branches(self):
        texts = {name: dumps(system) for name, system in writer_edge_cases()}
        assert '"components": []' in texts["empty"]
        assert '"spherical_roots": []' in texts["no-spherical-roots"]
        assert '"phi": []' in texts["no-spherical-roots"]
        assert '"colors": []' in texts["no-colors"]
        assert '"coeffs": {}' in texts["zero-root-and-unmoved-color"]
        assert '"moved_by": []' in texts["zero-root-and-unmoved-color"]
        rank_twelve = texts["rank-twelve"]
        assert rank_twelve.index('"a10": 1') < rank_twelve.index('"a2": 1')
        assert rank_twelve.index('"a2",') < rank_twelve.index('"a10",')
        assert '"-7/2"' in texts["negative-and-half"]
        assert '"a1": -3' in texts["negative-and-half"]
        assert '"id": "\\ud800"' in texts["escaped-ids"]


class TestColorIds:
    @pytest.mark.parametrize("cid", [5, ("x", 1), "", None, b"D"])
    def test_id_must_be_a_non_empty_str(self, cid):
        with pytest.raises(ValueError) as info:
            Color(cid, ["a1"], Functional([1]))
        assert str(info.value) == f"color id is not a non-empty str: {cid!r}"

    def test_escaped_ids_read_back(self):
        system = dict(writer_edge_cases())["escaped-ids"]
        assert loads(dumps(system)) == system


class TestPhiValues:
    @pytest.mark.parametrize(
        "raw, twice",
        [("-3/2", -3), ("4/2", 4), ("3/1", 6), ("-0/2", 0), ("03/2", 3), (-2, -4), (0, 0)],
    )
    def test_value_reads_as_its_doubled_int(self, raw, twice):
        system = loads(json.dumps(_a1_doc(colors=[_color(phi=[raw])])))
        assert system.colors[0].phi.twice == (twice,)

    @given(st.integers(min_value=-(10**30), max_value=10**30))
    def test_doubled_value_survives_a_round_trip(self, t):
        rs = build_root_system([("A", 1)])
        system = SphericalSystem(
            rs, [LatticeVector({"a1": 1})], [Color("D", ["a1"], Functional._of_twice((t,)))]
        )
        assert loads(dumps(system)).colors[0].phi.twice == (t,)


class TestParseErrors:
    def test_not_an_object(self):
        with pytest.raises(DocumentError, match="JSON object"):
            document_to_system([1, 2])

    def test_missing_components(self):
        with pytest.raises(DocumentError, match="root_system.components"):
            document_to_system({"spherical_roots": []})

    def test_bad_series(self):
        with pytest.raises(DocumentError, match="series"):
            document_to_system({"root_system": {"components": [{"series": "Q", "rank": 1}]}})

    def test_invalid_rank(self):
        with pytest.raises(DocumentError, match="invalid component"):
            document_to_system({"root_system": {"components": [{"series": "G", "rank": 5}]}})

    @pytest.mark.parametrize("rank", [True, False])
    def test_boolean_rank(self, rank):
        doc = {"root_system": {"components": [{"series": "A", "rank": 1}, {"series": "A", "rank": rank}]}}
        with pytest.raises(DocumentError, match=r"root_system\.components\[1\]"):
            document_to_system(doc)

    @pytest.mark.parametrize(
        "ranks", [[MAX_RANK], [MAX_RANK - 2, 2], [MAX_RANK + 1], [MAX_RANK - 2, 3]]
    )
    def test_total_rank_limit(self, ranks):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": r} for r in ranks]}
        }
        if sum(ranks) <= MAX_RANK:
            assert document_to_system(doc).rs.rank == sum(ranks)
        else:
            with pytest.raises(DocumentError, match=r"^root_system: total rank"):
                document_to_system(doc)

    def test_duplicate_color_id(self):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [{"coeffs": {"a1": 1}}],
            "colors": [
                {"id": "D", "moved_by": ["a1"], "phi": [1]},
                {"id": "D", "moved_by": ["a1"], "phi": [1]},
            ],
        }
        with pytest.raises(DocumentError, match=r"colors\[1\] \(D\)"):
            document_to_system(doc)

    def test_unknown_label_in_root(self):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [{"coeffs": {"a9": 1}}],
            "colors": [],
        }
        with pytest.raises(DocumentError, match="a9"):
            document_to_system(doc)

    def test_unknown_label_in_moved_by(self):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [],
            "colors": [{"id": "D", "moved_by": ["a3"], "phi": []}],
        }
        with pytest.raises(DocumentError, match="a3"):
            document_to_system(doc)

    def test_phi_length_mismatch(self):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [{"coeffs": {"a1": 1}}],
            "colors": [{"id": "D", "moved_by": ["a1"], "phi": [1, 2]}],
        }
        with pytest.raises(DocumentError, match="phi has 2 values"):
            document_to_system(doc)

    def test_bad_rational(self):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [{"coeffs": {"a1": 1}}],
            "colors": [{"id": "D", "moved_by": ["a1"], "phi": ["1/3"]}],
        }
        with pytest.raises(DocumentError, match="denominator"):
            document_to_system(doc)

    def test_invalid_json_text(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            loads("{not json")

    def test_non_integer_coefficient(self):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [{"coeffs": {"a1": 1.5}}],
            "colors": [],
        }
        with pytest.raises(DocumentError, match="not an integer"):
            document_to_system(doc)

    def test_invalid_json_names_the_line(self):
        with pytest.raises(DocumentError) as info:
            loads('{"colors": [1,\n2')
        assert str(info.value) == "invalid JSON at line 2: Expecting ',' delimiter"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100_000, "invalid JSON: arrays or objects nested too deeply"),
            ('{"colors": [' + "9" * 5000 + "]}", "invalid JSON: integer literal has too many digits"),
        ],
        ids=["nested", "long-int"],
    )
    def test_json_past_the_parser_limits(self, text, message):
        with pytest.raises(DocumentError) as info:
            loads(text)
        assert str(info.value) == message

    def test_non_string_moved_by_entry(self):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [{"coeffs": {"a1": 1}}],
            "colors": [{"id": "D", "moved_by": [["a1"]], "phi": [1]}],
        }
        with pytest.raises(DocumentError) as info:
            loads(json.dumps(doc))
        assert str(info.value) == "colors[0] (D): unknown label ['a1']"

    def test_components_far_past_the_limit_fail_at_once(self):
        # The running rank check alone would pass -10^9 and then make 10^9
        # labels; the component check before any label is made stops it.
        doc = {
            "root_system": {
                "components": [{"series": "A", "rank": -10**9}, {"series": "A", "rank": 10**9}]
            }
        }
        with pytest.raises(DocumentError) as info:
            document_to_system(doc)
        assert str(info.value) == "root_system: invalid component A-1000000000"

    def test_document_text_is_valid_json(self):
        text = dumps(catalog_entry("p1").system)
        json.loads(text)


def _a1_doc(**fields):
    doc = {
        "root_system": {"components": [{"series": "A", "rank": 1}]},
        "spherical_roots": [{"coeffs": {"a1": 1}}],
        "colors": [],
    }
    doc.update(fields)
    return doc


def _color(**fields):
    color = {"id": "D", "moved_by": ["a1"], "phi": [1]}
    color.update(fields)
    return color


class TestEveryParseError:
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"root_system": {"components": {}}}, "root_system.components must be a list"),
            (
                {"root_system": {"components": [{"series": "A"}]}},
                "root_system.components[0]: need series and rank",
            ),
            (_a1_doc(spherical_roots={}), "spherical_roots must be a list"),
            (_a1_doc(spherical_roots=[{"a1": 1}]), "spherical_roots[0]: need a coeffs object"),
            (_a1_doc(colors={}), "colors must be a list"),
            (_a1_doc(colors=["D"]), "colors[0]: must be an object"),
            (_a1_doc(colors=[{"moved_by": ["a1"], "phi": [1]}]), "colors[0]: missing id"),
            (
                _a1_doc(colors=[_color(moved_by=[])]),
                "colors[0] (D): moved_by must be a nonempty list",
            ),
            (_a1_doc(colors=[_color(phi=1)]), "colors[0] (D): phi must be a list"),
            (
                _a1_doc(colors=[_color(phi=[True])]),
                "colors[0] (D).phi[0]: expected integer or 'p/2' string, got bool",
            ),
            (
                _a1_doc(colors=[_color(phi=[1.0])]),
                "colors[0] (D).phi[0]: expected integer or 'p/2' string, got float",
            ),
            (
                _a1_doc(colors=[_color(phi=["x/2"])]),
                "colors[0] (D).phi[0]: cannot parse rational 'x/2'",
            ),
            (
                _a1_doc(colors=[_color(phi=["1/3"])]),
                "colors[0] (D).phi[0]: denominator of '1/3' must divide 2",
            ),
            (
                _a1_doc(colors=[_color(phi=["0.1"])]),
                "colors[0] (D).phi[0]: cannot parse rational '0.1'",
            ),
        ],
    )
    def test_message(self, doc, message):
        with pytest.raises(DocumentError) as info:
            document_to_system(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("0.5", "cannot parse rational '0.5'"),
            ("6/4", "denominator of '6/4' must divide 2"),
            (" 3/2", "cannot parse rational ' 3/2'"),
            ("1e0", "cannot parse rational '1e0'"),
            ("-0.5e1", "cannot parse rational '-0.5e1'"),
            ("3", "cannot parse rational '3'"),
            ("+1/2", "cannot parse rational '+1/2'"),
            ("1_0/2", "cannot parse rational '1_0/2'"),
            ("\u0661/2", "cannot parse rational '\u0661/2'"),
            ("2/4", "denominator of '2/4' must divide 2"),
            ("1/0", "cannot parse rational '1/0'"),
            ("3/2\n", "cannot parse rational '3/2\\n'"),
            ("1/02", "cannot parse rational '1/02'"),
            ("7" * 5000 + "/2", f"cannot parse rational '{'7' * 5000}/2'"),
        ],
        ids=[
            "decimal", "six-quarters", "leading-space", "exponent", "negative-exponent",
            "bare-int-string", "plus-sign", "underscore", "arabic-indic-digit", "two-quarters",
            "zero-denominator", "trailing-newline", "zero-padded-denominator", "5000-digits",
        ],
    )
    def test_phi_spelling_message(self, raw, message):
        # Through the JSON text, so non-ASCII digits arrive as loads reads them.
        with pytest.raises(DocumentError) as info:
            loads(json.dumps(_a1_doc(colors=[_color(phi=[raw])])))
        assert str(info.value) == f"colors[0] (D).phi[0]: {message}"

    def test_repeated_moved_by_label(self):
        doc = _a1_doc(colors=[_color(moved_by=["a1", "a1"])])
        with pytest.raises(DocumentError) as info:
            loads(json.dumps(doc))
        assert str(info.value) == "colors[0] (D): moved_by lists 'a1' twice"

    def test_unknown_label_before_a_repeat(self):
        doc = _a1_doc(colors=[_color(moved_by=["a1", "a7", "a1"])])
        with pytest.raises(DocumentError) as info:
            document_to_system(doc)
        assert str(info.value) == "colors[0] (D): unknown label 'a7'"

    def test_encoding_a_third_is_refused(self):
        from fractions import Fraction

        from wondersys import Functional

        # A third cannot be put in a functional, so no system can carry one
        # to the encoder.
        with pytest.raises(ValueError, match="value 0 .* Fraction\\(1, 3\\)"):
            Functional([Fraction(1, 3)])


class _Int(int):
    pass


@pytest.mark.parametrize("value", [_Int(1), True])
def test_spherical_root_coefficient_must_be_a_plain_int(value):
    # The reader builds each spherical root without checking it again, so a
    # coefficient that is an int subclass stops at the document boundary.
    doc = _a1_doc(spherical_roots=[{"coeffs": {"a1": value}}])
    with pytest.raises(DocumentError) as info:
        document_to_system(doc)
    assert str(info.value) == "spherical_roots[0]: coefficient of 'a1' not an integer"


def test_spherical_roots_are_plain_int_vectors():
    doc = _a1_doc(
        root_system={"components": [{"series": "A", "rank": 2}]},
        spherical_roots=[{"coeffs": {"a1": 2, "a2": 0}}],
    )
    (sigma,) = document_to_system(doc).psi
    assert sigma == LatticeVector({"a1": 2}) and sigma._coeffs == {"a1": 2}


def _with_foreign_label(field: str) -> SphericalSystem:
    """An A1 system built through the API whose color (field "moved_by") or
    spherical root (field "coeffs") names b7, a label outside its root system."""
    rs = build_root_system([("A", 1)])
    if field == "moved_by":
        colors = [Color("D", ["a1", "b7"], Functional([1]))]
        return SphericalSystem(rs, [LatticeVector({"a1": 2})], colors)
    return SphericalSystem(rs, [LatticeVector({"a1": 1, "b7": 1})], [])


@pytest.mark.parametrize("write", [dumps, system_to_document])
@pytest.mark.parametrize("field", ["moved_by", "coeffs"])
def test_writing_a_label_outside_the_root_system(write, field):
    with pytest.raises(RootSystemError) as info:
        write(_with_foreign_label(field))
    assert str(info.value) == "unknown simple-root label 'b7'"
