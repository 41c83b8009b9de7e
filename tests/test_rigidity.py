from __future__ import annotations

import itertools

import pytest

import wondersys.rigidity
from wondersys import (
    SphericalSystem,
    build_root_system,
    critical_roots,
    critical_roots_oracle,
    distinguished_elements,
    is_rigid,
    localize,
    validate_system,
)
from wondersys.catalog import catalog_entries, catalog_entry

from randsys import direct_sum, random_systems


class TestDistinguished:
    def test_condition1_equal_colors(self):
        report = distinguished_elements(catalog_entry("p1").system)
        assert not report.rigid
        assert report.distinguished[0].condition == 1

    def test_condition2_b_chain(self):
        report = distinguished_elements(catalog_entry("b2-short-sum").system)
        assert report.distinguished[0].condition == 2

    def test_condition3_g2(self):
        report = distinguished_elements(catalog_entry("g2-long-plus-double-short").system)
        assert report.distinguished[0].condition == 3

    def test_a2_chain_not_distinguished(self):
        assert distinguished_elements(catalog_entry("a2-full-support").system).rigid

    def test_is_rigid(self):
        assert not is_rigid(catalog_entry("p1").system)
        assert is_rigid(catalog_entry("group-a1a1").system)
        assert is_rigid(SphericalSystem(build_root_system([("A", 1)]), [], []))


class TestCriticality:
    def test_vacuous_when_support_is_everything(self):
        report = critical_roots_oracle(catalog_entry("a2-full-support").system)
        (entry,) = report.entries
        assert entry.critical and entry.vacuous and not entry.distinguished

    def test_distinguished_roots_are_not_critical(self):
        report = critical_roots_oracle(catalog_entry("p1").system)
        (entry,) = report.entries
        assert entry.distinguished and not entry.critical

    def test_group_compactification_both_critical(self):
        report = critical_roots_oracle(catalog_entry("group-a1a1").system)
        assert all(e.critical and not e.vacuous for e in report.entries)

    def test_reduced_matches_oracle_on_catalog(self):
        for entry in catalog_entries():
            assert critical_roots(entry.system).entries == critical_roots_oracle(entry.system).entries

    def test_reduced_matches_oracle_on_random_systems(self):
        for s in random_systems(seed=31, count=60):
            assert critical_roots(s).entries == critical_roots_oracle(s).entries

    def test_reduced_matches_oracle_on_wider_random_systems(self):
        for s in random_systems(seed=43, count=300, max_rank=8):
            assert critical_roots(s).entries == critical_roots_oracle(s).entries

    def test_reduced_matches_oracle_at_rank_24(self):
        # Every root fails at its first coatom, so the oracle stays cheap.
        s = direct_sum([catalog_entry("group-a1a1").system] * 12)
        assert s.rs.rank == 24
        entries = critical_roots(s).entries
        assert entries == critical_roots_oracle(s).entries
        assert all(e.failing_subset is not None for e in entries)

    @pytest.mark.parametrize("compute", [critical_roots, critical_roots_oracle])
    def test_each_subset_localized_once(self, monkeypatch, compute):
        calls = []
        original = wondersys.rigidity.localize

        def counting(system, subset):
            calls.append(frozenset(subset))
            return original(system, subset)

        monkeypatch.setattr(wondersys.rigidity, "localize", counting)
        s = direct_sum([catalog_entry("group-a1a1").system] * 3)
        entries = compute(s).entries
        assert sum(not e.distinguished and not e.vacuous for e in entries) == 6
        assert len(calls) == len(set(calls)) == 3

    def test_distinguished_never_critical(self):
        for s in random_systems(seed=37, count=40):
            for e in critical_roots_oracle(s).entries:
                assert not (e.distinguished and e.critical)


class TestMonotonicity:
    def test_distinguished_persists_under_localization(self):
        for entry in catalog_entries():
            s = entry.system
            labels = list(s.rs.simple_roots)
            if len(labels) > 5:
                continue
            dist = distinguished_elements(s).roots()
            for r in range(len(labels) + 1):
                for combo in itertools.combinations(labels, r):
                    sub = frozenset(combo)
                    loc = localize(s, sub)
                    local_dist = distinguished_elements(loc).roots()
                    for sigma in dist:
                        if sigma.support <= sub:
                            assert sigma in local_dist, (entry.name, str(sigma), sub)

    def test_simple_roots_distinguished_in_self_localization(self):
        systems = [e.system for e in catalog_entries()] + random_systems(seed=41, count=30)
        for s in systems:
            assert validate_system(s).ok
            for sigma in s.psi:
                if s.rs.as_simple_label(sigma) is None:
                    continue
                loc = localize(s, sigma.support)
                assert sigma in distinguished_elements(loc).roots()


class TestRankTwoSplitColors:
    def test_rigid_rank2_simple_root_has_split_values(self):
        # For a rigid rank-2 system with a simple spherical root, the two
        # colors must differ on the other spherical root.
        for entry in catalog_entries():
            s = entry.system
            if len(s.psi) != 2 or not is_rigid(s):
                continue
            for sigma in s.psi:
                lab = s.rs.as_simple_label(sigma)
                if lab is None:
                    continue
                (tau,) = [t for t in s.psi if t != sigma]
                j = s.psi_index(tau)
                dplus, dminus = s.colors_moved_by(lab)
                assert dplus.phi[j] != dminus.phi[j], (entry.name, lab)
