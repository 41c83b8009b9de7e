from __future__ import annotations

import importlib
import itertools
import random
from pathlib import Path

import pytest

from wondersys import (
    Color,
    Component,
    Functional,
    LatticeVector,
    RootSystem,
    RootSystemError,
    SphericalSystem,
    build_root_system,
    dumps,
    loads,
    localize,
    type_a_roots,
    validate_system,
)
from wondersys.catalog import catalog_entries, catalog_entry
from wondersys.rootlat import _label_key

from inducedoracle import induced_root_system, reference_localize
from randsys import random_systems, wide_system


class TestLocalize:
    def test_identity_on_full_set(self):
        for entry in catalog_entries():
            s = entry.system
            assert localize(s, s.rs.simple_roots) == s, entry.name

    def test_dropping_the_support(self):
        s = catalog_entry("a2-full-support").system
        sub = localize(s, {"a1"})
        assert sub.psi == ()
        assert len(sub.colors) == 1
        assert sub.colors[0].moved_by == {"a1"}
        assert sub.colors[0].phi == Functional([])

    def test_group_compactification_projection(self):
        s = catalog_entry("group-a1a1").system
        sub = localize(s, {"a1"})
        assert [str(x) for x in sub.psi] == ["a1"]
        assert [(c.id, c.phi.values) for c in sub.colors] == [
            ("Dp", (1,)),
            ("D1m", (1,)),
        ]

    def test_unknown_label_rejected(self):
        s = catalog_entry("a2-full-support").system
        with pytest.raises(RootSystemError):
            localize(s, {"a7"})

    def test_str_subset_rejected(self):
        # With one-letter labels, "ab" would silently read as {a, b}.
        s = SphericalSystem(RootSystem([Component("A", 2, ("a", "b"))]), [], [])
        for system, subset in [(s, "ab"), (catalog_entry("group-a1a1").system, "a1")]:
            with pytest.raises(RootSystemError, match=f"subset is a str, not a set of labels: '{subset}'"):
                localize(system, subset)

    def test_unchanged_colors_are_kept_as_they_are(self):
        # Every spherical root kept: a color whose moved labels all survive is
        # the parent's own object; one that loses a label is rebuilt.
        s = catalog_entry("group-a1a1").system
        assert all(a is b for a, b in zip(localize(s, s.rs.simple_roots).colors, s.colors))
        s = catalog_entry("a2-full-support").system
        sub = localize(s, {"a1"})
        assert sub.colors[0] is not s.colors[0]
        assert sub.colors[0].moved_by == {"a1"}

    def test_duplicate_parent_data_stays_distinct(self):
        # Both colors of a type-b root restrict to identical data but must
        # remain two distinct colors.
        s = catalog_entry("group-a1a1").system
        sub = localize(s, {"a1"})
        assert len(sub.colors) == 2
        assert sub.colors[0].phi == sub.colors[1].phi

    def test_composition_law(self):
        for i, s in enumerate(random_systems(seed=101, count=40)):
            rng = random.Random(1000 + i)
            labels = list(s.rs.simple_roots)
            prime = frozenset(lab for lab in labels if rng.random() < 0.7)
            second = frozenset(lab for lab in prime if rng.random() < 0.7)
            nested = localize(localize(s, prime), second)
            direct = localize(s, second)
            assert nested == direct

    def test_validity_preserved(self):
        rng = random.Random(7)
        for s in random_systems(seed=11, count=30):
            labels = list(s.rs.simple_roots)
            for _ in range(3):
                sub = frozenset(lab for lab in labels if rng.random() < 0.6)
                report = validate_system(localize(s, sub))
                assert report.ok, [str(v) for v in report.violations]

    def test_psi_count_bound(self):
        rng = random.Random(23)
        for s in random_systems(seed=29, count=30):
            labels = list(s.rs.simple_roots)
            sub = frozenset(lab for lab in labels if rng.random() < 0.5)
            loc = localize(s, sub)
            assert len(loc.psi) <= len(s.psi)
            union_supp = frozenset().union(*(x.support for x in s.psi)) if s.psi else frozenset()
            if len(loc.psi) == len(s.psi):
                assert union_supp <= sub
            if union_supp <= sub:
                assert len(loc.psi) == len(s.psi)


def _api_built(components) -> SphericalSystem:
    """Components as given, one simple spherical root at the first label of
    each and one color on it; validity does not matter here."""
    rs = RootSystem([Component(series, len(labels), labels) for series, labels in components])
    firsts = [labels[0] for _, labels in components]
    psi = [LatticeVector({lab: 1}) for lab in firsts]
    colors = [
        Color(f"D{k}", {lab}, Functional([int(i == k) for i in range(len(firsts))]))
        for k, lab in enumerate(firsts)
    ]
    return SphericalSystem(rs, psi, colors)


# Components listed out of label order, and components whose labels
# interleave, so a cut piece can sort before a component listed earlier.
API_BUILT = [
    _api_built([("B", ("a4", "a5", "a6")), ("A", ("a1", "a2", "a3")), ("G", ("a8", "a7"))]),
    _api_built([("A", ("a9", "a1", "a8")), ("D", ("a2", "a4", "a6", "a10")), ("C", ("a3", "a5", "a7"))]),
    _api_built([("E", ("e6", "e1", "e4", "e2", "e3", "e5")), ("F", ("x", "a1", "y", "b10"))]),
    _api_built([("D", ("a12", "a3", "a7", "a1", "a11")), ("A", ("a2", "a9")), ("B", ("a10", "a4", "a8"))]),
]


def _in_label_order(components) -> bool:
    firsts = [min(map(_label_key, comp.labels)) for comp in components]
    return firsts == sorted(firsts)


def _induced_inputs() -> list:
    systems = [e.system for e in catalog_entries()] + random_systems(5, 300, 8)
    wide = wide_system(random.Random(43), 43)
    assert wide.rs.rank == 43
    return systems + [wide] + API_BUILT


class TestInducedRootSystem:
    """Against the reference that types the whole subset at once."""

    def test_every_coatom_matches_the_reference(self):
        for s in _induced_inputs():
            labels = frozenset(s.rs.simple_roots)
            for lab in s.rs.simple_roots:
                got = localize(s, labels - {lab})
                want = reference_localize(s, labels - {lab})
                assert got.rs.components == want.rs.components, (s, lab)
                assert got == want
                assert dumps(got) == dumps(want)

    def test_every_subset_of_the_api_built_systems(self):
        for s in API_BUILT:
            labels = s.rs.simple_roots
            for size in range(len(labels) + 1):
                for combo in itertools.combinations(labels, size):
                    got, want = localize(s, combo), reference_localize(s, combo)
                    assert got.rs.components == want.rs.components, (s, combo)
                    assert dumps(got) == dumps(want)

    def test_full_set_is_the_identity(self):
        inputs = _induced_inputs()
        assert len(inputs) > 300
        for s in inputs:
            full = localize(s, s.rs.simple_roots)
            assert full == s
            assert dumps(full) == dumps(s)

    def test_full_set_sorts_components_listed_out_of_label_order(self):
        # Both were built with their components out of label order, and
        # RootSystem lists them by smallest label whatever order they are
        # given in, so localizing at the full set gives the system back.
        for s in (API_BUILT[0], API_BUILT[2]):
            comps = s.rs.components
            assert _in_label_order(comps)
            assert RootSystem(comps[::-1]).components == comps
            full = localize(s, s.rs.simple_roots)
            assert full == reference_localize(s, s.rs.simple_roots)
            assert full.rs.components == comps
            assert full == s

    def test_a_cut_piece_sorts_before_a_component_listed_earlier(self):
        s = API_BUILT[1]
        got = localize(s, frozenset(s.rs.simple_roots) - {"a1"})
        assert [c.labels for c in got.rs.components] == [
            ("a2", "a4", "a6", "a10"),
            ("a3", "a5", "a7"),
            ("a8",),
            ("a9",),
        ]


def _corpus_systems(monkeypatch) -> list:
    """The seed-301 wide-sums and batch-small cases of the benchmark."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    corpus = importlib.import_module("corpus")
    return [loads(case.text) for make in (corpus.wide_sums, corpus.batch_small) for case in make(301)]


class TestInducedFields:
    """`RootSystem.induced` against `RootSystem` of the reference components,
    field by field: `==` compares the components alone."""

    @staticmethod
    def _assert_fields(s: SphericalSystem, sub: frozenset) -> None:
        got, want = s.rs.induced(sub), induced_root_system(s.rs, sub)
        assert got.components == want.components, (s, sub)
        assert got.simple_roots == want.simple_roots
        for lab in want.simple_roots:
            assert got.index(lab) == want.index(lab)
            assert got.column(lab) == want.column(lab), (s, sub, lab)
            assert got.half_norm(lab) == want.half_norm(lab), (s, sub, lab)

    def test_every_coatom(self, monkeypatch):
        systems = _induced_inputs() + _corpus_systems(monkeypatch)
        assert len(systems) > 1300
        for s in systems:
            labels = frozenset(s.rs.simple_roots)
            for lab in labels:
                self._assert_fields(s, labels - {lab})

    def test_every_subset_of_the_api_built_systems(self):
        for s in API_BUILT:
            labels = s.rs.simple_roots
            for size in range(len(labels) + 1):
                for combo in itertools.combinations(labels, size):
                    self._assert_fields(s, frozenset(combo))

    def test_dropping_whole_components(self, monkeypatch):
        systems = [e.system for e in catalog_entries()] + _corpus_systems(monkeypatch)
        checked = 0
        for s in systems:
            labels = frozenset(s.rs.simple_roots)
            comps = s.rs.components
            if len(comps) < 2:
                continue
            for comp in comps:
                self._assert_fields(s, labels - frozenset(comp.labels))
            # Every second component dropped, the others kept whole.
            self._assert_fields(s, labels.difference(*(c.labels for c in comps[::2])))
            checked += 1
        assert checked > 500

    def test_cutting_two_components_at_once(self, monkeypatch):
        systems = [e.system for e in catalog_entries()] + _corpus_systems(monkeypatch)
        checked = 0
        for s in systems:
            labels = frozenset(s.rs.simple_roots)
            wide = [c for c in s.rs.components if c.rank >= 2]
            for first, second in zip(wide, wide[1:]):
                # An end label and a middle one (for rank 2, the other end).
                self._assert_fields(s, labels - {first.labels[0], second.labels[second.rank // 2]})
                checked += 1
        assert checked > 300

    def test_the_empty_subset(self, monkeypatch):
        systems = [e.system for e in catalog_entries()] + _corpus_systems(monkeypatch)
        for s in systems + API_BUILT:
            self._assert_fields(s, frozenset())
            empty = s.rs.induced(())
            assert empty.components == () and empty.simple_roots == () and empty.rank == 0

    def test_a_cut_piece_gets_its_own_half_norms(self):
        # Cut off its short root, B3 leaves an A2 of long roots: d = 1 there.
        rs = build_root_system([("B", 3), ("G", 2)])
        assert [rs.half_norm(lab) for lab in ("a1", "a2", "a4")] == [2, 2, 3]
        sub = rs.induced({"a1", "a2", "a4"})
        assert [(c.series, c.labels) for c in sub.components] == [
            ("A", ("a1", "a2")),
            ("A", ("a4",)),
        ]
        assert [sub.half_norm(lab) for lab in sub.simple_roots] == [1, 1, 1]

    def test_unknown_label_raises(self):
        rs = build_root_system([("A", 2)])
        with pytest.raises(RootSystemError, match="^unknown simple-root label 'b7'$"):
            rs.induced({"a1", "b7"})
        # With one-letter labels, "xz" would silently read as {x, z}.
        xyz = RootSystem([Component("A", 3, ("x", "y", "z"))])
        with pytest.raises(RootSystemError, match="^subset is a str, not a set of labels: 'xz'$"):
            xyz.induced("xz")

    def test_unknown_label_inside_a_larger_subset(self, monkeypatch):
        # One label outside the system among every label of it, a cut piece
        # and a dropped component: the texts are those of a lone unknown label.
        systems = [e.system for e in catalog_entries()] + _corpus_systems(monkeypatch)[:40]
        for s in systems:
            labels = s.rs.simple_roots
            for subset in (labels, labels[1:], labels[: len(labels) // 2]):
                bad = frozenset(subset) | {"b7"}
                with pytest.raises(RootSystemError, match="^unknown simple-root label 'b7'$"):
                    s.rs.induced(bad)
                with pytest.raises(RootSystemError, match="^unknown simple-root label 'b7'$"):
                    localize(s, bad)


class TestOneShotSubset:
    def test_iterators_localize_as_the_set(self):
        # `localize` must read its subset once: an iterator or a generator
        # is empty on a second reading.
        for entry in catalog_entries():
            s = entry.system
            full = frozenset(s.rs.simple_roots)
            for lab in s.rs.simple_roots:
                coatom = full - {lab}
                expected = localize(s, coatom)
                assert localize(s, iter(sorted(coatom))) == expected, (entry.name, lab)
                assert localize(s, (x for x in coatom)) == expected, (entry.name, lab)


class TestTypeARoots:
    def test_group_compactification_has_none(self):
        assert type_a_roots(catalog_entry("group-a1a1").system) == frozenset()

    def test_b2_tail(self):
        assert type_a_roots(catalog_entry("b2-short-sum").system) == {"a2"}

    def test_empty_psi_no_colors(self):
        s = SphericalSystem(build_root_system([("A", 2)]), [], [])
        assert type_a_roots(s) == {"a1", "a2"}
