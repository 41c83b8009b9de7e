from __future__ import annotations

import importlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import wondersys.rigidity
from wondersys import (
    Color,
    CriticalityEntry,
    CriticalityReport,
    Functional,
    LatticeVector,
    RootSystem,
    SphericalSystem,
    build_root_system,
    critical_roots,
    critical_roots_oracle,
    detect_subdiagram_type,
    distinguished_elements,
    loads,
    localize,
    type_a_roots,
    validate_system,
)
from wondersys.catalog import catalog_entries, catalog_entry
from wondersys.rigidity import (
    MAX_ORACLE_FREE_LABELS,
    _distinguished_witness,
    _proper_supersets,
)

from criticalityrule import closed_form_critical_roots
from distinguishedoracle import oracle_distinguished_witness
from mutations import mutation_cases
from rootoracle import block_cartan, block_pairing
from randsys import b2_colored_tail, colored_flag, direct_sum, random_systems, wide_systems


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
        assert not distinguished_elements(catalog_entry("p1").system).rigid
        assert distinguished_elements(catalog_entry("group-a1a1").system).rigid
        empty = SphericalSystem(build_root_system([("A", 1)]), [], [])
        assert distinguished_elements(empty).rigid


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


def _induced_pair_on_a_chain(series: str, n: int) -> SphericalSystem:
    """The rank-2 group system on a1 and an of one chain, with every inner
    simple root colored: a coatom that drops an inner root cuts the chain
    into two pieces."""
    rs = build_root_system([(series, n)])
    last = f"a{n}"
    colors = [
        Color("Dp", {"a1", last}, Functional([1, 1])),
        Color("D1m", {"a1"}, Functional([1, -1])),
        Color("Dnm", {last}, Functional([-1, 1])),
    ]
    for i in range(2, n):
        lab = f"a{i}"
        phi = [rs.cartan_entry(lab, "a1"), rs.cartan_entry(lab, last)]
        colors.append(Color(f"D{i}", {lab}, Functional(phi)))
    return SphericalSystem(rs, [LatticeVector({"a1": 1}), LatticeVector({last: 1})], colors)


class TestCoatomWork:
    """Each coatom the search reaches is localized once, and only the root
    that tries it is checked there, never every root of the localization."""

    def _systems(self, monkeypatch) -> list:
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        corpus = importlib.import_module("corpus")
        systems = [e.system for e in catalog_entries()]
        systems += [loads(case.text) for case in corpus.batch_small(301)]
        return [s for s in systems if validate_system(s).ok]

    @staticmethod
    def _coatoms_tried(system, report) -> set:
        labels = system.rs.simple_roots
        type_a = type_a_roots(system)
        tried = set()
        for e in report.entries:
            if e.distinguished:
                continue
            base = type_a | e.root.support
            for x in reversed(labels):
                if x in base:
                    continue
                sub = frozenset(labels) - {x}
                tried.add(sub)
                if sub == e.failing_subset:
                    break
        return tried

    def test_one_localization_per_coatom_tried(self, monkeypatch):
        # Each coatom is localized once, through one RootSystem.induced, the
        # localization builds no RootSystem through __init__, and the
        # recognizer only ever reads the system itself: the part a coatom
        # cuts is typed there.
        systems = self._systems(monkeypatch)
        localized, induced, asked, built, typed = [], [], [], [], []
        localize_, distinguished = wondersys.rigidity.localize, wondersys.rigidity.distinguished_elements
        init, induce = RootSystem.__init__, RootSystem.induced
        detect = wondersys.rootlat.detect_subdiagram_type

        def counting_localize(system, subset):
            localized.append(frozenset(subset))
            return localize_(system, subset)

        def counting_induced(rs, subset):
            induced.append(rs)
            return induce(rs, subset)

        def counting_distinguished(system):
            asked.append(system)
            return distinguished(system)

        def counting_init(rs, components):
            built.append(components)
            init(rs, components)

        def recording_detect(rs, sigma):
            typed.append(rs)
            return detect(rs, sigma)

        monkeypatch.setattr(wondersys.rigidity, "localize", counting_localize)
        monkeypatch.setattr(RootSystem, "induced", counting_induced)
        monkeypatch.setattr(wondersys.rigidity, "distinguished_elements", counting_distinguished)
        monkeypatch.setattr(RootSystem, "__init__", counting_init)
        monkeypatch.setattr(wondersys.rootlat, "detect_subdiagram_type", recording_detect)
        total = cuts = 0
        for s in systems:
            localized.clear()
            induced.clear()
            typed.clear()
            report = critical_roots(s)
            tried = self._coatoms_tried(s, report)
            assert len(localized) == len(set(localized)) == len(tried)
            assert set(localized) == tried
            assert len(induced) == len(localized)
            assert all(rs is s.rs for rs in induced + typed)
            total += len(tried)
            cuts += len(typed)
        assert len(systems) > 700 and total > 500 and cuts > 400
        assert asked == []
        assert built == []

    @pytest.mark.parametrize("series", ["A", "B"])
    def test_a_coatom_that_cuts_one_long_chain(self, series):
        s = _induced_pair_on_a_chain(series, 7)
        assert validate_system(s).ok
        entries = critical_roots(s).entries
        assert entries == critical_roots_oracle(s).entries
        for e in entries:
            assert not e.distinguished and not e.critical
            assert e.failing_subset == frozenset(s.rs.simple_roots) - {"a6"}
            pieces = detect_subdiagram_type(s.rs, e.failing_subset)
            assert [(c.series, c.labels) for c in pieces] == [
                ("A", ("a1", "a2", "a3", "a4", "a5")),
                ("A", ("a7",)),
            ]


def _b3_colored_tail() -> SphericalSystem:
    """B_3 chain sum whose short root a3 carries a color: type d in the
    tail, so condition 2 fails."""
    rs = build_root_system([("B", 3)])
    colors = [
        Color("D1", {"a1"}, Functional([1])),
        Color("D3", {"a3"}, Functional([0])),
    ]
    return SphericalSystem(rs, [LatticeVector({"a1": 1, "a2": 1, "a3": 1})], colors)


def _simple_root_beside_a_long_chain(n: int, tail: int) -> SphericalSystem:
    """sigma = a1 and tau = a2+...+an on A_{n+tail}, every label after an
    colored.  The two colors of a1 differ on tau alone, whose support holds
    every label outside sigma's base but the `tail` ones."""
    rs = build_root_system([("A", n + tail)])
    cartan = block_cartan(rs)
    tau = LatticeVector({f"a{i}": 1 for i in range(2, n + 1)})
    colors = [
        Color("D1p", {"a1"}, Functional([1, 0])),
        Color("D1m", {"a1"}, Functional([1, -1])),
        Color("D2", {"a2"}, Functional([-1, 1])),
        Color(f"D{n}", {f"a{n}"}, Functional([0, 1])),
    ]
    for i in range(n + 1, n + tail + 1):
        lab = f"a{i}"
        phi = [rs.cartan_entry(lab, "a1"), block_pairing(cartan, lab, tau)]
        colors.append(Color(f"D{i}", {lab}, Functional(phi)))
    return SphericalSystem(rs, [LatticeVector({"a1": 1}), tau], colors)


class TestOracleAgreementBeyondConditionOne:
    """The coatom search asks only condition 1 in a localization; the oracle
    asks all three at every subset.  These systems have roots that
    conditions 2 and 3 decide, and a differing functional on a long chain."""

    @staticmethod
    def _agree(s: SphericalSystem) -> tuple:
        assert validate_system(s).ok
        entries = critical_roots(s).entries
        assert entries == critical_roots_oracle(s).entries
        return entries

    @pytest.mark.parametrize("tail", [_b3_colored_tail, b2_colored_tail])
    def test_b_chain_sum_with_a_type_d_tail(self, tail):
        group = catalog_entry("group-a1a1").system
        s = direct_sum([tail(), group, colored_flag("A", 2, [1])])
        chain = self._agree(s)[0]
        assert not chain.distinguished and not chain.critical
        # The first coatom drops the flag's colored root; its last is of type a.
        assert chain.failing_subset == frozenset(s.rs.simple_roots) - {s.rs.simple_roots[-2]}

    def test_g2_sum_beside_the_distinguished_g2_pattern(self):
        parts = ["g2-long-plus-short", "g2-long-plus-double-short", "group-a1a1"]
        s = direct_sum([catalog_entry(name).system for name in parts])
        plain, pattern = self._agree(s)[:2]
        assert plain.root == LatticeVector({"a1": 1, "a2": 1})
        assert not plain.distinguished and not plain.critical and not plain.vacuous
        assert pattern.root == LatticeVector({"a3": 1, "a4": 2}) and pattern.distinguished

    @pytest.mark.parametrize("tail", [0, 1, 2])
    def test_colors_that_differ_on_a_long_chain(self, tail):
        s = _simple_root_beside_a_long_chain(7, tail)
        sigma = self._agree(s)[0]
        assert not sigma.distinguished and not sigma.vacuous
        labels = frozenset(s.rs.simple_roots)
        if tail:
            assert sigma.failing_subset == labels - {f"a{7 + tail}"}
        else:
            assert sigma.critical


class TestOracleLimit:
    """The oracle refuses a root with too many labels outside its base
    before localizing anything."""

    @staticmethod
    def _with_free_labels(free: int) -> SphericalSystem:
        # s1 = a1 has base {a1}: the 24 group labels and the flags are all
        # colored, none of type a.
        flags = [colored_flag("A", 1, [1])] * (free - 23)
        s = direct_sum([catalog_entry("group-a1a1").system] * 12 + flags)
        assert validate_system(s).ok and not type_a_roots(s)
        assert s.rs.rank - 1 == free
        return s

    def test_at_the_limit(self):
        s = self._with_free_labels(MAX_ORACLE_FREE_LABELS)
        entries = critical_roots_oracle(s).entries
        assert entries == critical_roots(s).entries
        assert all(e.failing_subset is not None for e in entries)

    def test_just_above_the_limit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(wondersys.rigidity, "localize", lambda *args: calls.append(args))
        s = self._with_free_labels(MAX_ORACLE_FREE_LABELS + 1)
        message = (
            f"oracle search at s1: {MAX_ORACLE_FREE_LABELS + 1} simple roots outside "
            f"its base exceed the limit {MAX_ORACLE_FREE_LABELS}"
        )
        with pytest.raises(ValueError, match=message):
            critical_roots_oracle(s)
        assert calls == []


class TestMonotonicity:
    def test_distinguished_persists_under_localization(self):
        for entry in catalog_entries():
            s = entry.system
            labels = list(s.rs.simple_roots)
            if len(labels) > 5:
                continue
            dist = frozenset(w.root for w in distinguished_elements(s).distinguished)
            for r in range(len(labels) + 1):
                for combo in itertools.combinations(labels, r):
                    sub = frozenset(combo)
                    loc = localize(s, sub)
                    local_dist = frozenset(w.root for w in distinguished_elements(loc).distinguished)
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
                assert sigma in frozenset(w.root for w in distinguished_elements(loc).distinguished)


class TestClosedFormRule:
    """The closed-form rule of `tests/criticalityrule.py` equals the coatom
    search on every field, over the catalog, random and wide systems and
    every coatom localization of each."""

    def test_rule_equals_critical_roots(self):
        systems = [e.system for e in catalog_entries()]
        systems += random_systems(seed=5, count=600, max_rank=8) + wide_systems(seed=7, count=30)
        for s in list(systems):
            labels = frozenset(s.rs.simple_roots)
            systems += [localize(s, labels - {lab}) for lab in s.rs.simple_roots]
        not_vacuous = 0
        for s in systems:
            report = critical_roots(s)
            assert closed_form_critical_roots(s) == report, s
            not_vacuous += sum(e.critical and not e.vacuous for e in report.entries)
        # Pinned, so that a change in the generators shows.
        assert (len(systems), not_vacuous) == (4076, 74)


def _b2_a1_sharing_a_color() -> SphericalSystem:
    """B2 (a1, a2) x A1 (a3) with Sigma = (a1 + a2, a2, a3) and a color Dp
    moved by both a2 and a3: the coatom without a3 keeps a1 + a2, whose
    support is that whole coatom, before a2."""
    rs = build_root_system([("B", 2), ("A", 1)])
    psi = [LatticeVector({"a1": 1, "a2": 1}), LatticeVector({"a2": 1}), LatticeVector({"a3": 1})]
    colors = [
        Color("Dp", {"a2", "a3"}, Functional([0, 1, 1])),
        Color("Dm", {"a2"}, Functional([0, 1, -1])),
        Color("E", {"a3"}, Functional([0, -1, 1])),
    ]
    return SphericalSystem(rs, psi, colors)


class TestRootIndexInALocalization:
    """A root is asked about in a localization at the index it has among the
    kept roots; a root before it is kept when its support lies in the
    subset, the whole subset included."""

    def test_a_support_equal_to_the_subset_counts(self):
        s = _b2_a1_sharing_a_color()
        assert validate_system(s).ok
        assert s.type_map == {"a1": "a", "a2": "b", "a3": "b"}
        expected = CriticalityReport((
            CriticalityEntry(
                s.psi[0], distinguished=False, critical=False, vacuous=False,
                failing_subset=frozenset({"a1", "a2"}),
            ),
            CriticalityEntry(s.psi[1], distinguished=False, critical=True, vacuous=False),
            CriticalityEntry(s.psi[2], distinguished=False, critical=True, vacuous=False),
        ))
        assert critical_roots(s) == expected
        assert critical_roots_oracle(s) == expected
        assert closed_form_critical_roots(s) == expected


def test_proper_supersets_each_once_largest_first():
    labels = ("a1", "a2", "a3", "a4", "a5")
    base = frozenset({"a1", "a4"})
    got = list(_proper_supersets(labels, frozenset(labels), base))
    # Three free labels: 2^3 - 1 subsets.
    assert got == [
        base | {"a2", "a3"}, base | {"a2", "a5"}, base | {"a3", "a5"},
        base | {"a2"}, base | {"a3"}, base | {"a5"},
        base,
    ]


class TestRankTwoSplitColors:
    def test_rigid_rank2_simple_root_has_split_values(self):
        # For a rigid rank-2 system with a simple spherical root, the two
        # colors must differ on the other spherical root.
        for entry in catalog_entries():
            s = entry.system
            if len(s.psi) != 2 or not distinguished_elements(s).rigid:
                continue
            for sigma in s.psi:
                lab = s.rs.as_simple_label(sigma)
                if lab is None:
                    continue
                (tau,) = [t for t in s.psi if t != sigma]
                j = s.psi_index(tau)
                dplus, dminus = s.colors_moved_by(lab)
                assert dplus.phi[j] != dminus.phi[j], (entry.name, lab)


def _chain_sum_across_two_factors() -> SphericalSystem:
    """A1 x A1 with sigma = a1 + a2 and one color moved by a1, phi = (2):
    valid, a1 of type d and a2 of type a, every coefficient 1, and no -2 on
    the support, so no B_k chain; the recognizer finds two components."""
    rs = build_root_system([("A", 1), ("A", 1)])
    color = Color("D", {"a1"}, Functional([2]))
    return SphericalSystem(rs, [LatticeVector({"a1": 1, "a2": 1})], [color])


# Diagrams and spherical roots whose Cartan entries the reading of conditions
# 2 and 3 must decide: B_k chains inside C_2, B_4 and F_4, chains with the
# short root of the double bond inside, supports that skip a label or span
# two components, a branch, and G_2 roots with coefficients (2, 1) and (1, 1).
_CARTAN_SHAPES = [
    ([("C", 2)], {"a1": 1, "a2": 1}),
    ([("C", 3)], {"a1": 1, "a2": 1, "a3": 1}),
    ([("F", 4)], {"a1": 1, "a2": 1, "a3": 1, "a4": 1}),
    ([("F", 4)], {"a2": 1, "a3": 1}),
    ([("F", 4)], {"a3": 1, "a4": 1}),
    ([("F", 4)], {"a2": 1, "a3": 1, "a4": 1}),
    ([("F", 4)], {"a1": 1, "a2": 1, "a3": 1}),
    ([("B", 4)], {"a2": 1, "a3": 1, "a4": 1}),
    ([("B", 4)], {"a1": 1, "a3": 1, "a4": 1}),
    ([("D", 4)], {"a1": 1, "a2": 1, "a3": 1, "a4": 1}),
    ([("B", 2), ("B", 2)], {"a1": 1, "a2": 1, "a3": 1, "a4": 1}),
    ([("G", 2), ("B", 2)], {"a1": 1, "a2": 1, "a3": 1, "a4": 1}),
    ([("B", 3), ("A", 1)], {"a2": 1, "a3": 1, "a4": 1}),
    ([("G", 2)], {"a1": 2, "a2": 1}),
    ([("G", 2)], {"a1": 1, "a2": 1}),
]


def _cartan_shape_systems() -> list:
    """Each shape with no colors, and with a zero color on either end of its
    support, which types that end d."""
    systems = []
    for components, coeffs in _CARTAN_SHAPES:
        rs = build_root_system(components)
        ends = sorted(coeffs, key=rs.index)
        for colored in ((), ends[:1], ends[-1:]):
            colors = [Color(f"D{lab}", {lab}, Functional([0])) for lab in colored]
            systems.append(SphericalSystem(rs, [LatticeVector(coeffs)], colors))
    return systems


def _witness_corpus():
    """Catalog, random and wide systems, hand-made chains beside other
    factors and the Cartan shapes, every coatom localization of each, and
    every localization of the catalog entries."""
    systems = [e.system for e in catalog_entries()]
    systems += random_systems(seed=47, count=200, max_rank=8) + wide_systems(seed=13, count=6)
    systems += [_b3_colored_tail(), b2_colored_tail(), _chain_sum_across_two_factors()]
    systems += [_simple_root_beside_a_long_chain(7, tail) for tail in (0, 1, 2)]
    systems += _cartan_shape_systems()
    for s in list(systems):
        labels = frozenset(s.rs.simple_roots)
        systems += [localize(s, labels - {lab}) for lab in s.rs.simple_roots]
    for entry in catalog_entries():
        labels = entry.system.rs.simple_roots
        for r in range(len(labels)):
            for combo in itertools.combinations(labels, r):
                systems.append(localize(entry.system, combo))
    return systems


# Small components for drawn diagrams: every series but E, with the double
# bond's short root at the end of a chain (B) and inside it (C, F).
_SMALL_COMPONENTS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4),
                     ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]


@st.composite
def _drawn_roots(draw) -> SphericalSystem:
    """One or two small components, one spherical root on a drawn support
    (a run of labels of one component, or any labels) with every coefficient 1
    or, on two labels, the coefficients 1 and 2, and a zero color on each
    of at most two drawn labels."""
    rs = build_root_system(draw(st.lists(st.sampled_from(_SMALL_COMPONENTS), min_size=1, max_size=2)))
    labels = rs.simple_roots
    if draw(st.booleans()):
        comp = draw(st.sampled_from(rs.components))
        start = draw(st.integers(0, comp.rank - 1))
        support = comp.labels[start:draw(st.integers(min(start + 2, comp.rank), comp.rank))]
    else:
        support = draw(st.lists(st.sampled_from(labels), min_size=min(2, rs.rank), max_size=rs.rank, unique=True))
    coeffs = dict.fromkeys(support, 1)
    if len(support) == 2 and draw(st.booleans()):
        coeffs[support[draw(st.integers(0, 1))]] = 2
    colored = sorted(draw(st.sets(st.sampled_from(labels), max_size=2)), key=rs.index)
    colors = [Color(f"D{lab}", {lab}, Functional([0])) for lab in colored]
    return SphericalSystem(rs, [LatticeVector(coeffs)], colors)


class TestCartanReading:
    """`_distinguished_witness` reads conditions 2 and 3 off the Cartan
    columns on a root's support, and gives the witnesses of the oracle,
    which types every support of two or more labels with the recognizer."""

    def test_witnesses_equal_the_recognizer_oracle(self):
        count = conditions = 0
        for s in _witness_corpus():
            for j in range(len(s.psi)):
                got = _distinguished_witness(s, j)
                assert got == oracle_distinguished_witness(s, j), (s, j)
                count += 1
                conditions += got is not None and got.condition > 1
        assert count > 2000 and conditions > 50

    def test_mutations_agree_too(self):
        for _, s, _ in mutation_cases():
            for j in range(len(s.psi)):
                assert _distinguished_witness(s, j) == oracle_distinguished_witness(s, j)

    @settings(max_examples=200, deadline=None)
    @given(_drawn_roots())
    def test_drawn_roots_agree_with_the_oracle(self, s):
        assert _distinguished_witness(s, 0) == oracle_distinguished_witness(s, 0)

    def test_the_recognizer_is_never_asked(self, monkeypatch):
        systems = _witness_corpus()  # built first: localizing it types the cuts
        calls = []
        original = wondersys.rootlat.detect_subdiagram_type

        def counting(rs, labels):
            calls.append(frozenset(labels))
            return original(rs, labels)

        monkeypatch.setattr(wondersys.rootlat, "detect_subdiagram_type", counting)
        for s in systems:
            distinguished_elements(s)
        assert calls == []

    def test_other_coefficient_shapes_are_not_distinguished(self):
        rs = build_root_system([("A", 3)])
        for coeffs in ({"a1": 1, "a2": 2, "a3": 1}, {"a1": 2, "a2": 2}, {"a1": 1, "a2": 3}):
            s = SphericalSystem(rs, [LatticeVector(coeffs)], [])
            assert distinguished_elements(s).rigid

    def test_two_labels_not_of_type_a_are_not_distinguished(self):
        rs = build_root_system([("B", 2)])
        colors = [Color("D1", {"a1"}, Functional([1])), Color("D2", {"a2"}, Functional([1]))]
        s = SphericalSystem(rs, [LatticeVector({"a1": 1, "a2": 1})], colors)
        assert s.type_map == {"a1": "d", "a2": "d"}
        assert distinguished_elements(s).rigid

    def test_a_support_over_two_components_is_not_distinguished(self):
        s = _chain_sum_across_two_factors()
        assert validate_system(s).ok
        assert s.type_map == {"a1": "d", "a2": "a"}
        assert distinguished_elements(s).rigid
        assert _distinguished_witness(s, 0) is None
        assert oracle_distinguished_witness(s, 0) is None

    @pytest.mark.parametrize(
        "name, condition", [("b2-short-sum", 2), ("b3-chain-sum", 2),
                            ("g2-long-plus-double-short", 3)]
    )
    def test_catalog_roots_distinguished(self, name, condition):
        s = catalog_entry(name).system
        assert [w.condition for w in distinguished_elements(s).distinguished] == [condition]
