from __future__ import annotations

import random

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
    localize,
    type_a_roots,
    validate_system,
)
from wondersys.catalog import catalog_entries, catalog_entry

from randsys import random_systems


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


class TestTypeARoots:
    def test_group_compactification_has_none(self):
        assert type_a_roots(catalog_entry("group-a1a1").system) == frozenset()

    def test_b2_tail(self):
        assert type_a_roots(catalog_entry("b2-short-sum").system) == {"a2"}

    def test_empty_psi_no_colors(self):
        s = SphericalSystem(build_root_system([("A", 2)]), [], [])
        assert type_a_roots(s) == {"a1", "a2"}
