from __future__ import annotations

import json

import pytest

from wondersys import (
    DocumentError,
    document_to_system,
    dumps,
    loads,
    localize,
    system_to_document,
)
from wondersys.rootlat import MAX_RANK
from wondersys.catalog import catalog_entries, catalog_entry

from randsys import doubled_root_a1


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

    def test_document_text_is_valid_json(self):
        text = dumps(catalog_entry("p1").system)
        json.loads(text)
