from __future__ import annotations

import pytest

from wondersys import (
    SphericalSystem,
    critical_roots_oracle,
    distinguished_elements,
    validate_system,
)
from wondersys.catalog import catalog_entries, catalog_entry

FULL_SUPPORT_CHAINS = [
    "a2-full-support",
    "b2-short-sum",
    "c3-double-middle",
    "g2-long-plus-short",
]


class TestCatalog:
    def test_every_entry_validates(self):
        for entry in catalog_entries():
            report = validate_system(entry.system)
            assert report.ok, (entry.name, [str(v) for v in report.violations])

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog_entry("no-such-system")

    def test_a_lookup_builds_one_system(self, monkeypatch):
        for entry in catalog_entries():
            assert catalog_entry(entry.name) == entry, entry.name
        built = []
        init = SphericalSystem.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(SphericalSystem, "__init__", counting)
        catalog_entry("p1")
        assert len(built) == 1

    def test_expected_type_maps(self):
        for entry in catalog_entries():
            assert entry.system.type_map == entry.expected["type_map"], entry.name

    def test_expected_rigidity_and_distinguished(self):
        for entry in catalog_entries():
            report = distinguished_elements(entry.system)
            assert report.rigid == entry.expected["rigid"], entry.name
            got = tuple(
                sorted(
                    (entry.system.psi_index(w.root), w.condition)
                    for w in report.distinguished
                )
            )
            assert got == tuple(sorted(entry.expected["distinguished"])), entry.name

    def test_expected_criticality(self):
        for entry in catalog_entries():
            report = critical_roots_oracle(entry.system)
            got = tuple(
                (i, e.critical, e.vacuous) for i, e in enumerate(report.entries)
            )
            assert got == entry.expected["critical"], entry.name


class TestFullSupportChains:
    @pytest.mark.parametrize("name", FULL_SUPPORT_CHAINS)
    def test_root_not_simple_and_support_is_everything(self, name):
        system = catalog_entry(name).system
        (sigma,) = system.psi
        assert system.rs.as_simple_label(sigma) is None
        assert sigma.support == frozenset(system.rs.simple_roots)

    def test_g2_sum_not_distinguished(self):
        assert distinguished_elements(catalog_entry("g2-long-plus-short").system).rigid

    def test_b2_chain_distinguished(self):
        report = distinguished_elements(catalog_entry("b2-short-sum").system)
        assert not report.rigid
        assert report.distinguished[0].condition == 2
