"""Acceptance suite: one test per criterion, printing a pass line each."""
from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

from wondersys import (
    LatticeVector,
    OrbitPoset,
    build_root_system,
    critical_roots,
    critical_roots_oracle,
    distinguished_elements,
    dumps,
    emit_graph,
    loads,
    localize,
    positive_roots,
    validate_system,
)
from wondersys.catalog import catalog_entries
from wondersys.cli import main

from mutations import mutation_cases
from randsys import random_systems
from rootoracle import formula_count, reflection_positive_roots
from validateoracle import restricted_coroot

GOLDEN_DOT = Path(__file__).parent / "data" / "orbit_r2.dot"


def _report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_axiom_suite_and_mutations():
    start = time.perf_counter()
    for entry in catalog_entries():
        report = validate_system(entry.system)
        assert report.ok, (entry.name, [str(v) for v in report.violations])
    cases = list(mutation_cases())
    assert len(cases) >= 30
    for desc, mutated, axiom in cases:
        report = validate_system(mutated)
        assert not report.ok, desc
        assert axiom in report.axiom_ids(), (desc, [str(v) for v in report.violations])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"axiom suite took {elapsed:.2f}s"
    _report(1, f"{len(catalog_entries())} systems valid, {len(cases)} mutations "
               f"each fail with the expected axiom ({elapsed:.2f}s)")


def test_criterion_2_type_classification_exhaustive():
    systems = [e.system for e in catalog_entries()] + random_systems(seed=2, count=50)
    checked = 0
    for s in systems:
        assert validate_system(s).ok
        psi_set = set(s.psi)
        for lab in s.rs.simple_roots:
            alpha = LatticeVector({lab: 1})
            cases = {
                "a": not s.colors_moved_by(lab),
                "b": alpha in psi_set,
                "c": 2 * alpha in psi_set,
                "d": (
                    alpha not in psi_set
                    and 2 * alpha not in psi_set
                    and bool(s.colors_moved_by(lab))
                ),
            }
            matched = [k for k, v in cases.items() if v]
            assert matched == [s.type_map[lab]]
            if s.type_map[lab] == "b":
                dplus, dminus = s.colors_moved_by(lab)
                assert dplus.phi + dminus.phi == restricted_coroot(s.rs, lab, s.psi)
            checked += 1
    _report(2, f"exactly one type per simple root on {len(systems)} systems "
               f"({checked} roots), type-b sums exact")


def test_criterion_3_localization_laws():
    start = time.perf_counter()
    for entry in catalog_entries():
        s = entry.system
        assert localize(s, s.rs.simple_roots) == s, entry.name
    rng = random.Random(3)
    systems = random_systems(seed=33, count=100)
    for s in systems:
        labels = list(s.rs.simple_roots)
        prime = frozenset(lab for lab in labels if rng.random() < 0.75)
        second = frozenset(lab for lab in prime if rng.random() < 0.75)
        loc_prime = localize(s, prime)
        assert validate_system(loc_prime).ok
        nested = localize(loc_prime, second)
        direct = localize(s, second)
        assert nested == direct
        assert validate_system(direct).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"localization laws took {elapsed:.2f}s"
    _report(3, f"identity, composition and validity on 100 random cases ({elapsed:.2f}s)")


def test_criterion_4_monotonicity_of_distinguishedness():
    checked = 0
    for entry in catalog_entries():
        s = entry.system
        labels = list(s.rs.simple_roots)
        assert len(labels) <= 5  # exhaustive coverage over all subsets
        dist = frozenset(w.root for w in distinguished_elements(s).distinguished)
        for r in range(len(labels) + 1):
            for combo in itertools.combinations(labels, r):
                sub = frozenset(combo)
                local_report = distinguished_elements(localize(s, sub))
                local_dist = frozenset(w.root for w in local_report.distinguished)
                for sigma in dist:
                    if sigma.support <= sub:
                        assert sigma in local_dist
                        checked += 1
    self_checked = 0
    for entry in catalog_entries():
        s = entry.system
        for sigma in s.psi:
            if s.rs.as_simple_label(sigma) is None:
                continue
            loc = localize(s, sigma.support)
            assert sigma in frozenset(w.root for w in distinguished_elements(loc).distinguished)
            self_checked += 1
    _report(4, f"monotonicity over all subsets ({checked} instances), "
               f"self-localization for {self_checked} simple spherical roots")


def test_criterion_5_criticality_oracle_equivalence():
    start = time.perf_counter()
    systems = [e.system for e in catalog_entries()] + random_systems(seed=5, count=200)
    for s in systems:
        assert len(s.rs.simple_roots) <= 6
        assert critical_roots(s).entries == critical_roots_oracle(s).entries
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criticality equivalence took {elapsed:.2f}s"
    _report(5, f"reduced search equals oracle on {len(systems)} systems ({elapsed:.2f}s)")


def test_criterion_6_full_support_chain_cases():
    names = ["a2-full-support", "b2-short-sum", "c3-double-middle", "g2-long-plus-short"]
    by_name = {e.name: e.system for e in catalog_entries()}
    for name in names:
        s = by_name[name]
        (sigma,) = s.psi
        assert s.rs.as_simple_label(sigma) is None, name
        assert sigma.support == frozenset(s.rs.simple_roots), name
    assert distinguished_elements(by_name["g2-long-plus-short"]).rigid
    b2 = distinguished_elements(by_name["b2-short-sum"])
    assert not b2.rigid and b2.distinguished[0].condition == 2
    _report(6, "four full-support chains verified; G2 sum not distinguished, "
               "B2 chain distinguished")


def test_criterion_7_orbit_posets():
    for r in range(11):
        p = OrbitPoset(r)
        assert len(p.nodes) == 2**r
        assert len(p.edges) == (r * 2 ** (r - 1) if r else 0)
    assert emit_graph(OrbitPoset(2)) == GOLDEN_DOT.read_text()
    _report(7, "node/edge counts for r <= 10, golden DOT byte-identical for r = 2")


def test_criterion_8_positive_root_self_check():
    specs = (
        [("A", 1)], [("A", 2)], [("A", 3)], [("A", 4)],
        [("B", 2)], [("B", 3)], [("B", 4)],
        [("C", 3)], [("D", 4)], [("F", 4)], [("G", 2)],
    )
    for spec in specs:
        rs = build_root_system(spec)
        ours = positive_roots(rs)
        assert ours == reflection_positive_roots(rs), spec
        assert len(ours) == formula_count(rs), spec
    _report(8, f"closure generator matches reflection oracle on {len(specs)} systems")


def test_criterion_9_cli_round_trip_and_exit_codes(tmp_path, capsys):
    for entry in catalog_entries():
        path = tmp_path / f"{entry.name}.json"
        path.write_text(dumps(entry.system))
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["catalog", "show", entry.name]) == 0
        shown = capsys.readouterr().out
        assert loads(shown) == entry.system, entry.name
    # Exit-code contract: 1 for axiom violations, 2 for malformed input.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "root_system": {"components": [{"series": "A", "rank": 1}]},
        "spherical_roots": [{"coeffs": {"a1": 1}}],
        "colors": [],
    }))
    assert main(["validate", str(bad)]) == 1
    capsys.readouterr()
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["validate", str(broken)]) == 2
    capsys.readouterr()
    assert main(["validate", "no-such-input"]) == 2
    capsys.readouterr()
    _report(9, f"round-trip and exit codes 0/1/2 on {len(catalog_entries())} entries")
