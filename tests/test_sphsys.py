from __future__ import annotations

import importlib
import random
from fractions import Fraction
from pathlib import Path
from typing import List

import pytest

from wondersys import (
    Color,
    Functional,
    LatticeVector,
    SphericalSystem,
    build_root_system,
    loads,
    localize,
    validate_system,
)
from wondersys.catalog import catalog_entries, catalog_entry
from wondersys.sphsys import coroot_table

from documentoracle import writer_edge_cases
from mutations import mutation_cases
from randsys import random_systems, wide_systems
from validateoracle import (
    oracle_types,
    oracle_violations,
    restricted_coroot,
    spherical_lattice_rank,
)


def lv(**coeffs):
    return LatticeVector(coeffs)


def a1_system(phi_plus, phi_minus):
    rs = build_root_system([("A", 1)])
    colors = [
        Color("Dp", frozenset({"a1"}), Functional(phi_plus)),
        Color("Dm", frozenset({"a1"}), Functional(phi_minus)),
    ]
    return SphericalSystem(rs, [lv(a1=1)], colors)


class TestAssignTypes:
    def test_type_b(self):
        assert a1_system([1], [1]).type_map == {"a1": "b"}

    def test_type_c(self):
        rs = build_root_system([("A", 1)])
        s = SphericalSystem(
            rs, [lv(a1=2)], [Color("D", frozenset({"a1"}), Functional([2]))]
        )
        assert s.type_map == {"a1": "c"}

    def test_type_d_pair(self):
        rs = build_root_system([("A", 2)])
        s = SphericalSystem(
            rs,
            [lv(a1=1, a2=1)],
            [
                Color("D1", frozenset({"a1"}), Functional([1])),
                Color("D2", frozenset({"a2"}), Functional([1])),
            ],
        )
        assert s.type_map == {"a1": "d", "a2": "d"}

    def test_type_b_wins_over_missing_colors(self):
        rs = build_root_system([("A", 1)])
        s = SphericalSystem(rs, [lv(a1=1)], [])
        assert s.type_map == {"a1": "b"}
        assert not validate_system(s).ok

    def test_empty_psi_all_a(self):
        rs = build_root_system([("B", 2)])
        s = SphericalSystem(rs, [], [])
        assert s.type_map == {"a1": "a", "a2": "a"}
        assert validate_system(s).ok


class TestValidateSystem:
    def test_valid_type_b(self):
        assert validate_system(a1_system([1], [1])).ok

    def test_bad_pairing(self):
        report = validate_system(a1_system([2], [0]))
        assert not report.ok
        assert "P1" in report.axiom_ids()

    def test_base_violation(self):
        rs = build_root_system([("A", 2)])
        s = SphericalSystem(rs, [lv(a1=1), lv(a1=1, a2=1)], [])
        report = validate_system(s)
        assert not report.ok
        assert "BASE" in report.axiom_ids()

    def test_negative_coefficient(self):
        rs = build_root_system([("A", 2)])
        s = SphericalSystem(rs, [lv(a1=1, a2=-1)], [])
        assert "BASE" in validate_system(s).axiom_ids()

    def test_p2_violation_value_above_one(self):
        # Type-b colors with a value 2 on a foreign simple spherical root.
        rs = build_root_system([("A", 1), ("A", 1)])
        colors = [
            Color("Dp", frozenset({"a1"}), Functional([1, 2])),
            Color("Dm", frozenset({"a1"}), Functional([1, -2])),
            Color("Ep", frozenset({"a2"}), Functional([0, 1])),
            Color("Em", frozenset({"a2"}), Functional([0, 1])),
        ]
        s = SphericalSystem(rs, [lv(a1=1), lv(a2=1)], colors)
        assert "P2" in validate_system(s).axiom_ids()

    def test_p2_violation_equality_without_moving(self):
        rs = build_root_system([("A", 1), ("A", 1)])
        colors = [
            Color("Dp", frozenset({"a1"}), Functional([1, 1])),
            Color("Dm", frozenset({"a1"}), Functional([1, -1])),
            Color("Ep", frozenset({"a2"}), Functional([0, 1])),
            Color("Em", frozenset({"a2"}), Functional([0, 1])),
        ]
        s = SphericalSystem(rs, [lv(a1=1), lv(a2=1)], colors)
        # Dp takes value 1 on a2 but is not moved by a2.
        assert "P2" in validate_system(s).axiom_ids()

    def test_p2_checks_a_color_of_two_type_b_roots_once(self):
        group = catalog_entry("group-a1a1").system
        assert group.colors[0].id == "Dp" and group.colors[0].moved_by == {"a1", "a2"}
        texts = []
        for twice in ((4, 2), (0, 2)):
            colors = [Color("Dp", {"a1", "a2"}, Functional._of_twice(twice))]
            bumped = SphericalSystem(group.rs, group.psi, colors + list(group.colors[1:]))
            texts.append([str(v) for v in validate_system(bumped).violations if v.axiom == "P2"])
        assert texts == [
            ["P2: <phi(Dp), a1> = 2 > 1 (color of a1)"],
            ["P2: <phi(Dp), a1> = 0 != 1 although a1 is a simple root moving Dp"],
        ]

    def test_p2_repeats_no_text_on_the_mutations(self):
        for desc, mutated, _ in mutation_cases():
            texts = [str(v) for v in validate_system(mutated).violations if v.axiom == "P2"]
            assert len(texts) == len(set(texts)), (desc, texts)

    def test_p3_mixed_types_sharing_color(self):
        rs = build_root_system([("A", 1), ("A", 2)])
        # a1 type b, a2 type d, sharing a color.
        colors = [
            Color("Dp", frozenset({"a1", "a2"}), Functional([1])),
            Color("Dm", frozenset({"a1"}), Functional([1])),
        ]
        s = SphericalSystem(rs, [lv(a1=1)], colors)
        assert "P3" in validate_system(s).axiom_ids()

    def test_p3_converse_requires_shared_colors(self):
        # Orthogonal type-d roots with equal coroots and sum in psi must
        # share their color; giving them separate colors is a violation.
        rs = build_root_system([("A", 1), ("A", 1)])
        colors = [
            Color("D1", frozenset({"a1"}), Functional([2])),
            Color("D2", frozenset({"a2"}), Functional([2])),
        ]
        s = SphericalSystem(rs, [lv(a1=1, a2=1)], colors)
        report = validate_system(s)
        assert "P3" in report.axiom_ids()

    def test_sigma2_orthogonal_sum_with_unequal_coroots(self):
        # a1 ⊥ a3 and a1+a3 is a spherical root, but the coroots differ on
        # the spherical roots: a1^∨ gives (2, 0) and a3^∨ gives (2, -2).
        rs = build_root_system([("A", 1), ("A", 3)])
        colors = [
            Color("Da", frozenset({"a1"}), Functional([2, 0])),
            Color("Db", frozenset({"a3"}), Functional([2, -2])),
            Color("D24", frozenset({"a2", "a4"}), Functional([-1, 2])),
        ]
        s = SphericalSystem(rs, [lv(a1=1, a3=1), lv(a2=1, a4=1)], colors)
        assert [str(v) for v in validate_system(s).violations] == [
            "SIGMA2: orthogonal roots a1, a3 sum to a spherical root, but their "
            "restricted coroots differ on a2+a4"
        ]

    def test_sigma2_holds_where_the_coroots_agree(self):
        # a1 ⊥ a2 and a1+a2 is the spherical root, on which both coroots are 2.
        s = catalog_entry("diag-a1a1").system
        assert s.psi == (lv(a1=1, a2=1),)
        assert validate_system(s).ok

    def test_duplicate_color_id(self):
        rs = build_root_system([("A", 1)])
        colors = [
            Color("D", frozenset({"a1"}), Functional([1])),
            Color("D", frozenset({"a1"}), Functional([1])),
        ]
        report = validate_system(SphericalSystem(rs, [lv(a1=1)], colors))
        assert not report.ok
        assert "P1: color id D is used by more than one color" in map(str, report.violations)

    def test_denominator_not_dividing_two(self):
        # Values outside (1/2)Z are refused when the functional is built, so
        # no such color reaches validation.
        with pytest.raises(ValueError, match="value 0 .* Fraction\\(4, 3\\)"):
            Functional([Fraction(4, 3)])

    def test_violations_are_collected_not_thrown(self):
        rs = build_root_system([("A", 2)])
        s = SphericalSystem(rs, [lv(a1=1, a2=-1), lv(a1=1)], [])
        report = validate_system(s)
        assert len(report.violations) >= 2


def _violations(spec, psi, colors):
    system = SphericalSystem(build_root_system(spec), psi, colors)
    return [str(v) for v in validate_system(system).violations]


class TestViolationTexts:
    def test_duplicate_spherical_root(self):
        colors = [Color("D", frozenset({"a1"}), Functional([2, 2]))]
        assert _violations([("A", 1)], [lv(a1=2), lv(a1=2)], colors) == [
            "BASE: duplicate spherical root 2*a1",
            "BASE: 2 spherical roots exceed the rank 1",
        ]

    def test_empty_support(self):
        assert _violations([("A", 1)], [LatticeVector({})], []) == [
            "BASE: spherical root with empty support"
        ]

    @pytest.mark.parametrize("count", [0, 2])
    def test_type_c_color_count(self, count):
        colors = [Color(f"D{k}", frozenset({"a1"}), Functional([2])) for k in range(count)]
        assert _violations([("A", 1)], [lv(a1=2)], colors) == [
            f"P1: type-c root a1 has {count} colors, expected 1"
        ]

    def test_type_c_phi_differs_from_half_coroot(self):
        colors = [Color("D", frozenset({"a1"}), Functional([1]))]
        assert _violations([("A", 1)], [lv(a1=2)], colors) == [
            "P1: type-c root a1: phi(D) = (1) differs from half coroot (2)"
        ]

    def test_half_coroot_with_a_half_value(self):
        colors = [Color("D", frozenset({"a1"}), Functional([2, 0]))]
        assert _violations([("A", 3)], [lv(a1=2), lv(a2=1, a3=1)], colors) == [
            "BASE: Cartan number of (2*a1, a2+a3) is -1/2, not a nonpositive integer",
            "P1: type-c root a1: phi(D) = (2, 0) differs from half coroot (2, -1/2)",
        ]

    def test_color_moved_by_no_simple_root(self):
        colors = [
            Color("Dp", frozenset({"a1"}), Functional([1])),
            Color("Dm", frozenset({"a1"}), Functional([1])),
            Color("E", frozenset(), Functional([0])),
        ]
        assert _violations([("A", 1)], [lv(a1=1)], colors) == [
            "P1: color E is moved by no simple root"
        ]

    def test_color_moved_by_a_label_outside_the_root_system(self):
        rs = build_root_system([("A", 1)])
        split = [
            Color("Dp", ["a1", "b7"], Functional([1])),
            Color("Dm", ["a1"], Functional([1])),
        ]
        typed_c = [Color("D", [1], Functional([1]))]
        mixed = [Color("D", [2, "b7", "a0"], Functional([]))]
        cases = [
            (SphericalSystem(rs, [lv(a1=1)], split),
             ["P1: color Dp is moved by 'b7', not a simple root"]),
            (SphericalSystem(rs, [lv(a1=2)], typed_c),
             ["P1: color D is moved by 1, not a simple root",
              "P1: type-c root a1 has 0 colors, expected 1"]),
            # Sorted by repr, so labels of mixed types sort too.
            (SphericalSystem(rs, [], mixed),
             ["P1: color D is moved by 'a0', not a simple root",
              "P1: color D is moved by 'b7', not a simple root",
              "P1: color D is moved by 2, not a simple root"]),
        ]
        for system, texts in cases:
            assert [str(v) for v in validate_system(system).violations] == texts
            assert [str(v) for v in oracle_violations(system)] == texts
            assert list(system.type_map) == list(system.rs.simple_roots)

    def test_functional_length_mismatch_stops_validation(self):
        # Without the stop, the type-b check would add functionals of
        # different lengths.
        colors = [
            Color("Dp", frozenset({"a1"}), Functional([1, 0])),
            Color("Dm", frozenset({"a1"}), Functional([1])),
        ]
        assert _violations([("A", 1)], [lv(a1=1)], colors) == [
            "P1: color Dp: functional has 2 values for 1 spherical roots"
        ]

    def test_type_b_roots_sharing_two_colors(self):
        colors = [
            Color("Dp", frozenset({"a1", "a2"}), Functional([1, 1])),
            Color("Dm", frozenset({"a1", "a2"}), Functional([1, 1])),
        ]
        assert _violations([("A", 1), ("A", 1)], [lv(a1=1), lv(a2=1)], colors) == [
            "P1: type-b root a1: phi(Dp) + phi(Dm) = (2, 2) differs from coroot (2, 0)",
            "P1: type-b root a2: phi(Dp) + phi(Dm) = (2, 2) differs from coroot (0, 2)",
            "P3: type-b roots a1, a2 share 2 colors, expected exactly 1",
        ]

    @pytest.mark.parametrize(
        "psi, text",
        [
            ([lv(a2=1), lv(a1=1, a2=1)], "(a2, a1+a2) is 1"),
            ([lv(a2=2), lv(a1=1, a2=2)], "(2*a2, a1+2*a2) is 3/2"),
            ([lv(a2=2), lv(a1=1)], "(2*a2, a1) is -1/2"),
        ],
    )
    def test_cartan_number_text(self, psi, text):
        base = [v for v in _violations([("A", 2)], psi, []) if v.startswith("BASE")]
        assert base[0] == f"BASE: Cartan number of {text}, not a nonpositive integer"

    def test_shared_color_type_d_roots_not_orthogonal(self):
        colors = [Color("D", frozenset({"a1", "a2"}), Functional([1]))]
        assert _violations([("A", 2)], [lv(a1=1, a2=1)], colors) == [
            "P3: shared-color roots a1, a2 not orthogonal"
        ]


class TestLatticeRank:
    def test_empty(self):
        s = SphericalSystem(build_root_system([("A", 2)]), [], [])
        assert spherical_lattice_rank(s) == 0

    def test_one(self):
        assert spherical_lattice_rank(a1_system([1], [1])) == 1

    def test_two(self):
        rs = build_root_system([("A", 1), ("A", 1)])
        colors = [
            Color("Dp", frozenset({"a1", "a2"}), Functional([1, 1])),
            Color("D1m", frozenset({"a1"}), Functional([1, -1])),
            Color("D2m", frozenset({"a2"}), Functional([-1, 1])),
        ]
        s = SphericalSystem(rs, [lv(a1=1), lv(a2=1)], colors)
        assert spherical_lattice_rank(s) == 2

    @pytest.mark.parametrize(
        "spec,psi,rank",
        [
            ([("A", 2)], [{"a1": 1}, {"a2": 1}, {"a1": 1, "a2": 1}], 2),
            ([("A", 1)], [{"a1": 2}, {"a1": 1}], 1),
            ([("A", 3)], [{"a1": 1, "a2": 1}, {"a2": 1, "a3": 1}, {"a1": 1, "a3": -1}], 2),
            ([("B", 2), ("A", 1)], [{"a3": 1}, {"a1": 1, "a2": 2}, {"a2": 1}], 3),
            ([("A", 2)], [{"a1": 2, "a2": 1}, {"a1": 1, "a2": 2}], 2),
            ([("A", 2)], [{"a1": 2, "a2": 4}, {"a1": 1, "a2": 2}], 1),
            (
                [("A", 3)],
                [{"a1": 2, "a2": 1}, {"a1": 1, "a2": 2, "a3": 1}, {"a1": 3, "a2": 3, "a3": 1}],
                2,
            ),
            (
                [("A", 3)],
                [{"a1": 2, "a2": 3, "a3": 1}, {"a1": 4, "a2": 1, "a3": 5}, {"a1": 6, "a2": 2, "a3": 3}],
                3,
            ),
            ([("A", 3)], [{"a2": 3, "a3": 2}, {"a2": 6, "a3": 4}, {"a1": 5, "a3": 7}], 2),
        ],
    )
    def test_dependent_roots_counted_once(self, spec, psi, rank):
        s = SphericalSystem(build_root_system(spec), [LatticeVector(c) for c in psi], [])
        assert spherical_lattice_rank(s) == rank

    def test_matches_rational_elimination(self):
        rs = build_root_system([("A", 5)])
        rng = random.Random(11)
        for _ in range(300):
            psi = [
                LatticeVector({lab: rng.choice([0, 0, -3, -2, -1, 1, 2, 3]) for lab in rs.simple_roots})
                for _ in range(rng.randint(0, 6))
            ]
            s = SphericalSystem(rs, psi, [])
            assert spherical_lattice_rank(s) == _rational_rank(rs.simple_roots, psi), psi

    def test_base_passing_systems_have_full_lattice_rank(self, monkeypatch):
        # BASE makes the spherical roots a basis of the lattice they span.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        corpus = importlib.import_module("corpus")
        systems = [e.system for e in catalog_entries()] + random_systems(5, 600, 8)
        systems += [system for _, system, _ in mutation_cases()]
        for seed in (301, 302):
            for make in (corpus.batch_small, corpus.wide_sums, corpus.big_components):
                systems += [loads(case.text) for case in make(seed)]
        systems += [system for _, system in writer_edge_cases()]
        passing = 0
        for s in systems:
            if any(v.axiom == "BASE" for v in validate_system(s).violations):
                continue
            passing += 1
            assert spherical_lattice_rank(s) == len(s.psi), s
        assert passing > 2800


def _rational_rank(labels, psi):
    """Rank by Gaussian elimination over Fraction, as a reference."""
    coeffs = [dict(sigma.items()) for sigma in psi]
    rows = [[Fraction(c.get(lab, 0)) for lab in labels] for c in coeffs]
    rank = 0
    for col in range(len(labels)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / top[col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], top)]
        rank += 1
    return rank


class TestPropOneOnValidatedSystems:
    def test_exactly_one_raw_case_matches(self):
        for entry in catalog_entries():
            s = entry.system
            psi_set = set(s.psi)
            for lab in s.rs.simple_roots:
                alpha = LatticeVector({lab: 1})
                raw = {
                    "a": not s.colors_moved_by(lab),
                    "b": alpha in psi_set,
                    "c": 2 * alpha in psi_set,
                    "d": (
                        alpha not in psi_set
                        and 2 * alpha not in psi_set
                        and bool(s.colors_moved_by(lab))
                    ),
                }
                matched = [k for k, v in raw.items() if v]
                assert matched == [s.type_map[lab]], (entry.name, lab, matched)

    def test_type_b_color_sum_is_coroot(self):
        for entry in catalog_entries():
            s = entry.system
            for lab in s.rs.simple_roots:
                if s.type_map[lab] != "b":
                    continue
                dplus, dminus = s.colors_moved_by(lab)
                assert dplus.phi + dminus.phi == restricted_coroot(s.rs, lab, s.psi)

    def test_p2_bound_on_validated_systems(self):
        for entry in catalog_entries():
            s = entry.system
            for lab in s.rs.simple_roots:
                if s.psi_index(LatticeVector({lab: 1})) is None:
                    continue
                for d in s.colors_moved_by(lab):
                    assert max(d.phi.values, default=0) <= 1


def _systems_and_coatom_localizations():
    systems = [entry.system for entry in catalog_entries()]
    systems += random_systems(seed=11, count=60, max_rank=8)
    for s in list(systems):
        labels = frozenset(s.rs.simple_roots)
        systems += [localize(s, labels - {lab}) for lab in s.rs.simple_roots]
    return systems


class TestSystemIndex:
    def test_colors_moved_by_equals_scan(self):
        for s in _systems_and_coatom_localizations():
            for lab in s.rs.simple_roots:
                scan = tuple(d for d in s.colors if lab in d.moved_by)
                assert s.colors_moved_by(lab) == scan, (s, lab)
            assert s.colors_moved_by("not-a-label") == ()

    def test_coroot_table_equals_restricted_coroot(self):
        for s in _systems_and_coatom_localizations():
            table = coroot_table(s)
            assert list(table) == list(s.rs.simple_roots)
            for lab, values in table.items():
                assert Functional(values) == restricted_coroot(s.rs, lab, s.psi), (s, lab)


def _index_edge_cases():
    """Systems whose simple-root index is built from repeated or doubled
    roots, with the type map and violations read at the commit before the
    index existed."""
    a1 = build_root_system([("A", 1)])
    a2 = build_root_system([("A", 2)])
    a1a1 = build_root_system([("A", 1), ("A", 1)])

    def color(id, moved_by, values):
        return Color(id, frozenset(moved_by), Functional(values))

    return [
        # P1 reads phi at the last index of a simple root listed twice.
        (
            SphericalSystem(a1, [lv(a1=1), lv(a1=1)], [color("Dp", ["a1"], [1, 0]), color("Dm", ["a1"], [1, 2])]),
            {"a1": "b"},
            [
                "BASE: duplicate spherical root a1",
                "BASE: 2 spherical roots exceed the rank 1",
                "P1: type-b root a1: <phi(Dp), a1> = 0 != 1",
                "P1: type-b root a1: <phi(Dm), a1> = 2 != 1",
                "P2: <phi(Dp), a1> = 0 != 1 although a1 is a simple root moving Dp",
                "P2: <phi(Dm), a1> = 2 > 1 (color of a1)",
            ],
        ),
        (
            SphericalSystem(a1, [lv(a1=1), lv(a1=2)], [color("Dp", ["a1"], [1, 1]), color("Dm", ["a1"], [1, 1])]),
            {"a1": "b"},
            [
                "BASE: 2 spherical roots exceed the rank 1",
                "P1: type-b root a1: phi(Dp) + phi(Dm) = (2, 2) differs from coroot (2, 4)",
                "P2: <phi(Dp), 2*a1> = 1 but 2*a1 is not a simple root moving Dp",
                "P2: <phi(Dm), 2*a1> = 1 but 2*a1 is not a simple root moving Dm",
            ],
        ),
        (
            SphericalSystem(a1, [lv(a1=2)], [color("D", ["a1"], [1])]),
            {"a1": "c"},
            ["P1: type-c root a1: phi(D) = (1) differs from half coroot (2)"],
        ),
        (
            SphericalSystem(a2, [lv(a1=2), lv(a2=2)], [color("D", ["a1", "a2"], [1, -1])]),
            {"a1": "c", "a2": "c"},
            [
                "P1: type-c root a1: phi(D) = (1, -1) differs from half coroot (2, -1)",
                "P1: type-c root a2: phi(D) = (1, -1) differs from half coroot (-1, 2)",
                "P3: roots a1 (type c) and a2 (type c) share a color",
            ],
        ),
        (
            SphericalSystem(
                a1a1,
                [lv(a1=1, a2=1), lv(a1=1, a2=1)],
                [color("D1", ["a1"], [1, 1]), color("D2", ["a2"], [1, 1])],
            ),
            {"a1": "d", "a2": "d"},
            [
                "BASE: duplicate spherical root a1+a2",
                "P1: type-d root a1: phi(D1) = (1, 1) differs from coroot (2, 2)",
                "P1: type-d root a2: phi(D2) = (1, 1) differs from coroot (2, 2)",
                "P3: type-d roots a1, a2 satisfy the sharing conditions but have "
                "different color sets",
            ],
        ),
        (
            SphericalSystem(a1a1, [lv(a1=2, a2=2)], [color("D1", ["a1"], [2]), color("D2", ["a2"], [2])]),
            {"a1": "d", "a2": "d"},
            [
                "P1: type-d root a1: phi(D1) = (2) differs from coroot (4)",
                "P1: type-d root a2: phi(D2) = (2) differs from coroot (4)",
            ],
        ),
        (
            SphericalSystem(a1a1, [lv(a1=2, a2=2)], [color("D", ["a1", "a2"], [2])]),
            {"a1": "d", "a2": "d"},
            [
                "P1: type-d root a1: phi(D) = (2) differs from coroot (4)",
                "P1: type-d root a2: phi(D) = (2) differs from coroot (4)",
                "P3: a1+a2 is neither a spherical root nor twice one",
            ],
        ),
    ]


class TestSimpleRootIndex:
    @pytest.mark.parametrize("system, types, texts", _index_edge_cases())
    def test_repeated_and_doubled_roots(self, system, types, texts):
        assert system.type_map == types
        assert [str(v) for v in validate_system(system).violations] == texts
        assert oracle_types(system) == types
        assert [str(v) for v in oracle_violations(system)] == texts

    def test_type_map_equals_vector_membership(self):
        systems = [entry.system for entry in catalog_entries()]
        systems += random_systems(5, 300, 8)
        systems += [mutated for _, mutated, _ in mutation_cases()]
        for s in list(systems):
            labels = frozenset(s.rs.simple_roots)
            systems += [localize(s, labels - {lab}) for lab in s.rs.simple_roots]
        for s in systems:
            assert s.type_map == oracle_types(s), s
            assert list(s.type_map) == list(s.rs.simple_roots), s
            assert s.simple_labels == tuple(map(s.rs.as_simple_label, s.psi)), s

    def test_psi_index_is_the_last_equal_root(self):
        systems = [entry.system for entry in catalog_entries()]
        systems += random_systems(5, 300, 8)
        for s in list(systems):
            labels = frozenset(s.rs.simple_roots)
            systems += [localize(s, labels - {lab}) for lab in s.rs.simple_roots]
        systems += [system for system, _, _ in _index_edge_cases()]
        absent = 0
        for s in systems:
            reference = {sigma: j for j, sigma in enumerate(s.psi)}
            probes = list(s.psi) + [LatticeVector(), lv(b99=1)]
            for lab in s.rs.simple_roots:
                alpha = LatticeVector({lab: 1})
                probes += [alpha, 2 * alpha]
            for v in probes:
                assert s.psi_index(v) == reference.get(v), (s, v)
                absent += v not in reference
        assert absent > len(systems)


class TestMutations:
    def test_every_mutation_fails_with_expected_axiom(self):
        cases = list(mutation_cases())
        assert len(cases) >= 30
        for desc, mutated, axiom in cases:
            report = validate_system(mutated)
            assert not report.ok, desc
            assert axiom in report.axiom_ids(), (desc, [str(v) for v in report.violations])


def _perturbed(system: SphericalSystem, rng: random.Random) -> List[SphericalSystem]:
    """Invalid variants of a valid system: two colors given one id, one
    functional value moved by 1/2, one color dropped, and one spherical
    root grown by a simple root."""
    colors, psi = list(system.colors), list(system.psi)
    out = []
    if len(colors) >= 2:
        a, b = rng.sample(range(len(colors)), 2)
        renamed = list(colors)
        renamed[b] = Color(colors[a].id, colors[b].moved_by, colors[b].phi)
        out.append(SphericalSystem(system.rs, psi, renamed))
    if colors and psi:
        k, j = rng.randrange(len(colors)), rng.randrange(len(psi))
        twice = list(colors[k].phi.twice)
        twice[j] += rng.choice((-1, 1))
        shifted = list(colors)
        shifted[k] = Color(colors[k].id, colors[k].moved_by, Functional._of_twice(tuple(twice)))
        out.append(SphericalSystem(system.rs, psi, shifted))
    if colors:
        dropped = colors[: len(colors) // 2] + colors[len(colors) // 2 + 1 :]
        out.append(SphericalSystem(system.rs, psi, dropped))
    if psi:
        j = rng.randrange(len(psi))
        grown = list(psi)
        grown[j] = grown[j] + LatticeVector({rng.choice(system.rs.simple_roots): 1})
        out.append(SphericalSystem(system.rs, grown, colors))
    return out


def _hand_built_systems() -> List[SphericalSystem]:
    a1a1 = build_root_system([("A", 1), ("A", 1)])
    a2 = build_root_system([("A", 2)])

    def color(id, moved_by, values):
        return Color(id, frozenset(moved_by), Functional(values))

    return [
        # Two colors with one id on different labels: orthogonal type-d
        # roots, then adjacent ones, then a type-b root and a type-d root.
        SphericalSystem(a1a1, [lv(a1=1, a2=1)], [color("D", ["a1"], [2]), color("D", ["a2"], [2])]),
        SphericalSystem(a2, [lv(a1=1, a2=1)], [color("D", ["a1"], [1]), color("D", ["a2"], [1])]),
        SphericalSystem(
            a1a1,
            [lv(a1=1)],
            [color("D", ["a1"], [1]), color("E", ["a1"], [1]), color("D", ["a2"], [0])],
        ),
        # A zero spherical root, with and without other roots.
        SphericalSystem(a2, [LatticeVector({})], []),
        SphericalSystem(a2, [lv(a1=1), LatticeVector({}), lv(a2=1)], []),
        # A negative coefficient.
        SphericalSystem(a2, [lv(a1=1, a2=-1), lv(a1=1)], [color("D", ["a1"], [1, 1])]),
        # Type-d roots with equal restricted coroots but separate colors,
        # whose sum is a spherical root, then one whose sum is not.
        SphericalSystem(a1a1, [lv(a1=1, a2=1)], [color("D1", ["a1"], [2]), color("D2", ["a2"], [2])]),
        SphericalSystem(
            a1a1, [lv(a1=2, a2=2)], [color("D1", ["a1"], [4]), color("D2", ["a2"], [4])]
        ),
    ]


class TestValidateOracle:
    """`validate_system` reports what the all-pairs oracle reports, in order."""

    def _assert_agrees(self, systems):
        for s in systems:
            expected = oracle_violations(s)
            assert list(validate_system(s).violations) == expected, s

    def test_catalog_random_and_coatom_localizations(self):
        self._assert_agrees(_systems_and_coatom_localizations())

    def test_mutations(self):
        self._assert_agrees([mutated for _, mutated, _ in mutation_cases()])

    def test_wide_sums_and_their_perturbations(self):
        rng = random.Random(5)
        systems = wide_systems(seed=23, count=12)
        assert min(s.rs.rank for s in systems) >= 24
        assert max(s.rs.rank for s in systems) <= 48
        perturbed = [p for s in systems for p in _perturbed(s, rng)]
        assert sum(not validate_system(p).ok for p in perturbed) > len(systems)
        self._assert_agrees(systems + perturbed)

    def test_hand_built(self):
        systems = _hand_built_systems()
        self._assert_agrees(systems)
        texts = [[str(v) for v in validate_system(s).violations] for s in systems]
        assert "P1: color id D is used by more than one color" in texts[0]
        assert "P3: shared-color roots a1, a2 not orthogonal" in texts[1]
        assert "P3: roots a1 (type b) and a2 (type d) share a color" in texts[2]
        assert "BASE: spherical root with empty support" in texts[3]
        assert "BASE: negative coefficient of a2 in a1-a2" in texts[5]
        assert texts[6] == [
            "P3: type-d roots a1, a2 satisfy the sharing conditions "
            "but have different color sets"
        ]
        # a1 + a2 is neither 2*a1+2*a2 nor twice it: nothing to share.
        assert texts[7] == []

    @pytest.mark.parametrize(
        "psi",
        [
            [lv(a9=1)],
            [LatticeVector({}), lv(a1=1), lv(a2=1, a9=1, a8=1)],
            [lv(a1=1, b=2)],
        ],
    )
    def test_unknown_label_reports_the_same_violations(self, psi):
        s = SphericalSystem(build_root_system([("A", 2)]), psi, [])
        got = [str(v) for v in validate_system(s).violations]
        assert got == [str(v) for v in oracle_violations(s)]
        unknown = [lab for sigma in psi for lab in sorted(sigma.support) if lab not in s.rs]
        labels = [text for text in got if text.endswith(", not a simple root")]
        assert [text.split("'")[1] for text in labels] == unknown
        assert all(text.startswith("BASE: spherical root ") for text in labels)
