"""Valid systems are analysed without building a single `Fraction`.

Functional values are stored as doubled ints, the invariant form is an int
and the coroot table holds ints, so `Fraction` is needed only to read
`Functional.values` back.  The tests count calls to `Fraction.__new__` while
documents are read and the analyses run.
`dumps` writes the document text itself, so a last test counts the calls it
makes into json's pure-Python indenting encoder.  Each system indexes its
simple spherical roots on construction, so validation and rigidity build no
`LatticeVector` either; a test counts both ways of building one.
`positive_roots` closes each component's roots by position along the
sparse Cartan columns of the table every root system is built from, keeps
them in a table of its own, and on each call makes each root's relabelled
coefficient dict its vector's own, so it builds no Cartan block and takes
neither way in; a last test counts those calls.
"""
from __future__ import annotations

import importlib
import json
import json.encoder
from fractions import Fraction
from pathlib import Path

from wondersys import (
    LatticeVector,
    build_root_system,
    critical_roots,
    critical_roots_oracle,
    distinguished_elements,
    dumps,
    loads,
    localize,
    positive_roots,
    validate_system,
)
from wondersys import rootlat
from wondersys.catalog import catalog_entries
from wondersys.rootlat import MAX_RANK

from randsys import random_systems, wide_systems

ORACLE_MAX_RANK = 8


def _count_fractions(monkeypatch) -> list:
    calls = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    return calls


def test_no_fraction_on_the_valid_system_path(monkeypatch):
    systems = [e.system for e in catalog_entries()] + random_systems(5, 200, 8)
    calls = _count_fractions(monkeypatch)
    valid = 0
    for s in systems:
        if not validate_system(s).ok:
            continue
        valid += 1
        distinguished_elements(s)
        critical_roots(s)
        if s.rs.rank <= ORACLE_MAX_RANK:
            critical_roots_oracle(s)
        labels = frozenset(s.rs.simple_roots)
        for lab in labels:
            localize(s, labels - {lab})
    assert valid > 200
    assert calls == []
    # The counter sees the read view, which does build Fractions.
    assert systems[0].colors[0].phi.values
    assert calls


def _count_vectors(monkeypatch) -> list:
    calls = []
    init, of_ints = LatticeVector.__init__, LatticeVector._of_ints.__func__

    def counting_init(self, *args, **kwargs):
        calls.append("__init__")
        init(self, *args, **kwargs)

    def counting_of_ints(cls, coeffs):
        calls.append("_of_ints")
        return of_ints(cls, coeffs)

    monkeypatch.setattr(LatticeVector, "__init__", counting_init)
    monkeypatch.setattr(LatticeVector, "_of_ints", classmethod(counting_of_ints))
    return calls


def test_no_lattice_vector_in_validation_and_rigidity(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    corpus = importlib.import_module("corpus")
    systems = [e.system for e in catalog_entries()]
    systems += [loads(case.text) for case in corpus.batch_small(301)]
    calls = _count_vectors(monkeypatch)
    valid = 0
    for s in systems:
        if not validate_system(s).ok:
            continue
        valid += 1
        distinguished_elements(s)
        critical_roots(s)
    assert valid > 700
    assert calls == []
    # The counter sees both ways in.
    LatticeVector({"a1": 1}) + LatticeVector({"a2": 1})
    assert calls == ["__init__", "__init__", "_of_ints"]


def test_no_fraction_while_reading_documents(monkeypatch):
    texts = [dumps(e.system) for e in catalog_entries()]
    texts += [
        json.dumps(
            {
                "root_system": {"components": [{"series": "A", "rank": 1}]},
                "spherical_roots": [{"coeffs": {"a1": 1}}, {"coeffs": {"a1": 2}}],
                "colors": [{"id": "D", "moved_by": ["a1"], "phi": [f"{p}/2", f"{p}/1"]}],
            }
        )
        for p in range(-9, 10)
    ]
    calls = _count_fractions(monkeypatch)
    systems = [loads(text) for text in texts]
    assert calls == []
    assert systems[-1].colors[0].phi.twice == (9, 18)


def test_dumps_uses_no_json_encoder(monkeypatch):
    systems = [e.system for e in catalog_entries()] + wide_systems(7, 20)
    calls = []
    make_iterencode = json.encoder._make_iterencode
    iterencode = json.encoder.JSONEncoder.iterencode

    def counting_make_iterencode(*args, **kwargs):
        calls.append("_make_iterencode")
        return make_iterencode(*args, **kwargs)

    def counting_iterencode(self, *args, **kwargs):
        calls.append("iterencode")
        return iterencode(self, *args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counting_make_iterencode)
    monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", counting_iterencode)
    texts = [dumps(s) for s in systems]
    assert all(texts)
    assert calls == []
    # The counters see an indented json.dumps.
    json.dumps({"a": [1]}, indent=2)
    assert calls == ["iterencode", "_make_iterencode"]


def test_positive_roots_build_no_block_and_no_checked_vector(monkeypatch):
    specs = [[(series, rank)] for series, rank in (("E", 8), ("F", 4), ("G", 2), ("D", 3))]
    specs += [[(series, MAX_RANK)] for series in "ABCD"] + [[("B", 5), ("E", 6), ("A", 1)]]
    # Built first: filling the column table is the constructor's work.
    systems = [build_root_system(spec) for spec in specs]
    blocks = []
    original = rootlat.component_cartan
    monkeypatch.setattr(
        rootlat, "component_cartan", lambda *args: blocks.append(args) or original(*args)
    )
    calls = _count_vectors(monkeypatch)
    counts = [len(positive_roots(rs)) for rs in systems]
    assert counts[:4] == [120, 24, 6, 6] and sum(counts) > 12_000
    assert blocks == [] and calls == []
