from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wondersys import (
    Color,
    Component,
    Functional,
    LatticeVector,
    RootSystem,
    RootSystemError,
    SphericalSystem,
    build_root_system,
    critical_roots,
    detect_subdiagram_type,
    dumps,
    loads,
    localize,
    positive_roots,
    validate_system,
)
from wondersys.catalog import catalog_entries

from wondersys import rootlat
from wondersys.rootlat import MAX_RANK, _label_key, component_cartan
from wondersys.sphsys import coroot_table

from dynkinoracle import oracle_subdiagram_type
from randsys import wide_systems
from rootoracle import (
    block_cartan,
    block_lengths,
    block_pairing,
    formula_count,
    gram_form,
    reflection_positive_roots,
)
from validateoracle import halved, oracle_violations, restricted_coroot


def lv(**coeffs):
    return LatticeVector(coeffs)


def pairings(rs, w):
    """<alpha_a^vee, w> for every simple root a, as validation pairs them:
    `coroot_table` of a system whose one spherical root is w."""
    return {lab: row[0] for lab, row in coroot_table(SphericalSystem(rs, [w], [])).items()}


# Every series once; with MAX_RANK_SPEC, a sum of total rank MAX_RANK.
MIXED_SPEC = [("G", 2), ("A", 3), ("B", 4), ("C", 3), ("D", 5), ("E", 6), ("F", 4), ("A", 1)]
MAX_RANK_SPEC = MIXED_SPEC + [("E", 8), ("D", 8), ("B", 5), ("C", 6), ("A", MAX_RANK - 55)]
REFERENCE_IDS = ["mixed", "max-rank", "interleaved"]


def reference_systems():
    """The mixed sum, the rank-MAX_RANK sum and components with interleaved labels."""
    return [
        build_root_system(MIXED_SPEC),
        build_root_system(MAX_RANK_SPEC),
        RootSystem(
            [
                Component("F", 4, ("a6", "a2", "a8", "a1")),
                Component("B", 3, ("a7", "a3", "a5")),
                Component("G", 2, ("a4", "a9")),
            ]
        ),
    ]


class TestBuildRootSystem:
    def test_a1_cartan(self):
        rs = build_root_system([("A", 1)])
        assert rs.cartan_entry("a1", "a1") == 2

    def test_g2_cartan_short_second(self):
        rs = build_root_system([("G", 2)])
        assert rs.cartan_entry("a1", "a2") == -1
        assert rs.cartan_entry("a2", "a1") == -3
        assert 2 * rs.half_norm("a2") == 2  # short root
        assert 2 * rs.half_norm("a1") == 6

    def test_orthogonal_components(self):
        rs = build_root_system([("A", 1), ("A", 1)])
        assert rs.cartan_entry("a1", "a2") == 0

    def test_b_short_root_last(self):
        rs = build_root_system([("B", 3)])
        assert 2 * rs.half_norm("a3") == 2
        assert 2 * rs.half_norm("a1") == 4
        assert rs.cartan_entry("a3", "a2") == -2
        assert rs.cartan_entry("a2", "a3") == -1

    def test_columns_are_the_nonzero_cartan_entries(self):
        # The reference is each component's standard block, not cartan_entry,
        # which reads the columns itself.
        for rs in reference_systems():
            reference = block_cartan(rs)
            labels = rs.simple_roots
            for b in labels:
                assert rs.column(b) == frozenset(
                    (a, reference[a, b]) for a in labels if (a, b) in reference
                ), b
        with pytest.raises(RootSystemError, match="^unknown simple-root label 'b1'$"):
            rs.column("b1")

    def test_unknown_labels(self):
        rs = build_root_system(MIXED_SPEC)
        for call in (
            lambda: rs.cartan_entry("b1", "a1"),
            lambda: rs.cartan_entry("a1", "b1"),
            lambda: rs.half_norm("b1"),
            lambda: detect_subdiagram_type(rs, {"a1", "b1"}),
        ):
            with pytest.raises(RootSystemError, match="^unknown simple-root label 'b1'$"):
                call()
        # With one-letter labels, "xy" would silently read as {x, y}.
        xyz = RootSystem([Component("A", 3, ("x", "y", "z"))])
        with pytest.raises(RootSystemError, match="^subset is a str, not a set of labels: 'xy'$"):
            detect_subdiagram_type(xyz, "xy")

    @pytest.mark.parametrize(
        "components",
        [
            [Component("A", 1, ("x",)), Component("A", 1, ("x",))],
            [Component("A", 2, ("x", "x"))],
        ],
    )
    def test_duplicate_labels_rejected(self, components):
        with pytest.raises(RootSystemError, match="^duplicate simple-root labels$"):
            RootSystem(components)

    @pytest.mark.parametrize("series,rank", [("D", 2), ("G", 3), ("F", 3), ("E", 5), ("B", 1), ("Z", 1)])
    def test_invalid_components_rejected(self, series, rank):
        with pytest.raises(RootSystemError):
            build_root_system([(series, rank)])

    @pytest.mark.parametrize(
        "spec",
        [
            [("A", 4)],
            [("B", 3)],
            [("C", 3)],
            [("D", 4)],
            [("E", 6)],
            [("F", 4)],
            [("G", 2)],
            [("B", 2), ("A", 2)],
        ],
    )
    def test_cartan_form_compatibility(self, spec):
        # The columns against a_ab = 2 (alpha_a, alpha_b) / (alpha_a, alpha_a),
        # the form taken from the standard blocks.
        rs = build_root_system(spec)
        cartan, lengths = block_cartan(rs), block_lengths(rs)
        for a in rs.simple_roots:
            va = LatticeVector({a: 1})
            for b in rs.simple_roots:
                vb = LatticeVector({b: 1})
                expected = Fraction(2 * gram_form(cartan, lengths, va, vb),
                                    gram_form(cartan, lengths, va, va))
                assert rs.cartan_entry(a, b) == expected


class TestComponentOrder:
    """Components are listed by smallest label, whatever order they are given in."""

    A3 = Component("A", 3, ("a1", "a2", "a3"))
    B3 = Component("B", 3, ("a4", "a5", "a6"))

    def test_order_given_does_not_matter(self):
        swapped, ordered = RootSystem([self.B3, self.A3]), RootSystem([self.A3, self.B3])
        assert swapped == ordered and hash(swapped) == hash(ordered)
        assert swapped.components == (self.A3, self.B3)
        assert swapped.simple_roots == ("a1", "a2", "a3", "a4", "a5", "a6")
        assert swapped.cartan_entry("a5", "a6") == ordered.cartan_entry("a5", "a6") == -1

    def test_smallest_label_by_label_key(self):
        # a10 sorts after a9, though not as text; a label without digits reads 0.
        g2 = Component("G", 2, ("a10", "a11"))
        a1, x = Component("A", 1, ("a9",)), Component("A", 1, ("x",))
        assert RootSystem([g2, a1, x]).components == (x, a1, g2)

    @pytest.mark.parametrize("label", [7, None, b"a1", ("a1",)])
    def test_a_label_that_is_not_a_str_is_refused(self, label):
        comp = Component("A", 2, ("a1", label))
        with pytest.raises(RootSystemError, match=f"^simple-root label {re.escape(repr(label))} is not a str$"):
            RootSystem([self.B3, comp])

    @pytest.mark.parametrize(
        "comp,message",
        [
            (Component("A", 0, ()), "invalid component A0"),
            (Component("A", 1, ()), "component label count mismatch"),
            (Component("Z", 1, ("a7",)), "invalid component Z1"),
            (Component("A", 2, ("a7",)), "component label count mismatch"),
        ],
    )
    def test_component_errors_keep_their_text(self, comp, message):
        for comps in ([comp], [self.A3, comp], [comp, self.A3]):
            with pytest.raises(RootSystemError, match=f"^{message}$"):
                RootSystem(comps)

    def test_label_key_matches_the_generator_form(self):
        def generator_key(label):
            digits = "".join(c for c in label if c.isdigit())
            return (int(digits) if digits else 0, label)

        labels = [f"a{i}" for i in range(1, 65)] + ["x", "b10", "e6", "a1b2", "", "a\u0663"]
        for label in labels:
            assert _label_key(label) == generator_key(label)
        assert _label_key("a\u0663") == (3, "a\u0663")

    def test_label_key_fast_path_matches_the_filter_form(self):
        # The path for one non-digit character and decimal digits against
        # the general form, which keeps every decimal digit of the label.
        def filter_key(label):
            digits = "".join(filter(str.isdecimal, label))
            return (int(digits) if digits else 0, label)

        labels = [f"a{i}" for i in range(1, 65)] + ["12", "x²", "a١٢"]
        for label in labels:
            assert _label_key(label) == filter_key(label), label
        assert _label_key("a١٢") == (12, "a١٢")
        assert _label_key("x²") == (0, "x²")

    def test_a_digit_that_int_refuses_does_not_stop_the_sort(self):
        # "²" is a digit but not a decimal one; the generator form raised here.
        sq, a1 = Component("A", 1, ("a\u00b2",)), Component("A", 1, ("a1",))
        assert _label_key("a1\u00b2") == (1, "a1\u00b2")
        assert RootSystem([a1, sq]).components == (sq, a1)


class TestComponentLabels:
    """A component keeps its labels as a tuple, whatever sequence they come in."""

    def test_a_list_of_labels_is_kept_as_a_tuple(self):
        listed = Component("A", 2, ["a1", "a2"])
        assert listed.labels == ("a1", "a2") and type(listed.labels) is tuple
        rs = RootSystem([listed])
        given = RootSystem([Component("A", 2, ("a1", "a2"))])
        assert rs == given and hash(rs) == hash(given)
        system = SphericalSystem(rs, [], [])
        assert hash(system) == hash(SphericalSystem(given, [], []))

    def test_a_str_of_labels_is_refused(self):
        message = "^component A2: labels is a str, not a sequence of labels: 'xy'$"
        with pytest.raises(RootSystemError, match=message):
            Component("A", 2, "xy")


class TestErrorPrecedence:
    """With two faults in one root system, the first check in this order
    reports: total rank, a label that is not a `str`, duplicate labels, a
    component's label count."""

    def test_total_rank_before_a_label_that_is_not_a_str(self):
        labels = tuple(f"x{i}" for i in range(MAX_RANK)) + (7,)
        with pytest.raises(RootSystemError, match=f"^total rank {MAX_RANK + 1} exceeds"):
            RootSystem([Component("A", MAX_RANK + 1, labels)])

    def test_a_label_that_is_not_a_str_before_duplicates(self):
        comps = [Component("A", 2, ("x", "x")), Component("A", 1, (7,))]
        for given in (comps, comps[::-1]):
            with pytest.raises(RootSystemError, match="^simple-root label 7 is not a str$"):
                RootSystem(given)

    def test_duplicates_before_a_label_count_mismatch(self):
        comps = [Component("A", 1, ("x", "y")), Component("A", 1, ("x",))]
        for given in (comps, comps[::-1]):
            with pytest.raises(RootSystemError, match="^duplicate simple-root labels$"):
                RootSystem(given)


class TestCartanAgainstComponentBlocks:
    """Every reader of the Cartan matrix against the standard component blocks
    (`rootoracle.block_cartan`), which share nothing with the column index."""

    @pytest.mark.parametrize("k", range(3), ids=REFERENCE_IDS)
    def test_every_entry(self, k):
        rs = reference_systems()[k]
        # The reference holds no pair across components: those read 0.
        reference = block_cartan(rs)
        for a in rs.simple_roots:
            for b in rs.simple_roots:
                assert rs.cartan_entry(a, b) == reference.get((a, b), 0), (a, b)

    def test_half_norms(self):
        for rs in reference_systems():
            for comp in rs.components:
                _, lengths = component_cartan(comp.series, comp.rank)
                assert [rs.half_norm(a) for a in comp.labels] == [x // 2 for x in lengths]

    def test_max_rank_sum_is_at_the_limit(self):
        assert build_root_system(MAX_RANK_SPEC).rank == MAX_RANK

    @pytest.mark.parametrize("k", range(3), ids=REFERENCE_IDS)
    def test_form_and_cartan_integer(self, k):
        # The pairings validation makes (`coroot_table`) against the blocks,
        # and the form it reads off them, sum_a x_a d_a <alpha_a^vee, w>,
        # against the Gram formula.
        rs = reference_systems()[k]
        labels = rs.simple_roots
        cartan, lengths = block_cartan(rs), block_lengths(rs)
        rng = random.Random(11 + k)
        for _ in range(150):
            v, w = (
                LatticeVector({lab: rng.randint(-4, 4) for lab in rng.sample(labels, rng.randint(0, 8))})
                for _ in range(2)
            )
            pairing = pairings(rs, w)
            assert pairing == {a: block_pairing(cartan, a, w) for a in labels}
            form = sum(x * rs.half_norm(a) * pairing[a] for a, x in v.items())
            assert form == gram_form(cartan, lengths, v, w) == gram_form(cartan, lengths, w, v)


class TestOraclesReadTheBlocks:
    """A wrong entry in `_COMPONENTS`, the table every `RootSystem` and
    `positive_roots` read, must show against the references, which read the
    standard blocks.  B3 with <alpha_3^vee, alpha_2> = -1 in place of -2."""

    @pytest.fixture
    def corrupted(self, monkeypatch):
        norms, columns, _ = rootlat._component("B", 3)
        assert columns[1] == ((0, 1, 2), (-1, 2, -2))
        wrong = (columns[0], ((0, 1, 2), (-1, 2, -1)), columns[2])
        monkeypatch.setitem(rootlat._COMPONENTS, ("B", 3), [norms, wrong, None])
        return build_root_system([("B", 3)])

    def test_positive_roots_differ_from_the_reflection_oracle(self, corrupted):
        assert len(reflection_positive_roots(corrupted)) == 9
        assert positive_roots(corrupted) != reflection_positive_roots(corrupted)

    def test_undoing_the_corruption_leaves_no_wrong_roots(self, corrupted, monkeypatch):
        # The corrupted entry carries the roots closed from its columns, so
        # restoring the entry restores the roots as well.
        assert positive_roots(corrupted) != reflection_positive_roots(corrupted)
        monkeypatch.undo()
        b3 = build_root_system([("B", 3)])
        assert positive_roots(b3) == reflection_positive_roots(b3)

    def test_validation_differs_from_the_validation_oracle(self, corrupted):
        # a2 of type b; a3 of type d, its color the coroot of a3 on a2, -2.
        colors = [
            Color("D2p", {"a2"}, Functional([1])),
            Color("D2m", {"a2"}, Functional([1])),
            Color("D3", {"a3"}, Functional([-2])),
        ]
        s = SphericalSystem(corrupted, [lv(a2=1)], colors)
        assert Functional(coroot_table(s)["a3"]) != restricted_coroot(corrupted, "a3", s.psi)
        assert oracle_violations(s) == []
        assert list(validate_system(s).violations) != oracle_violations(s)


ALL_SMALL_COMPONENTS = (
    [("A", n) for n in range(1, 9)]
    + [(series, n) for series in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


class TestInvariantForm:
    @pytest.mark.parametrize("series,rank", ALL_SMALL_COMPONENTS)
    def test_symmetrized_cartan_is_symmetric(self, series, rank):
        cartan, lengths = component_cartan(series, rank)
        d = [length // 2 for length in lengths]
        assert all(length in (2, 4, 6) for length in lengths)
        for i in range(rank):
            for j in range(rank):
                assert d[i] * cartan[i][j] == d[j] * cartan[j][i], (i, j)


class TestRankLimit:
    def test_limit_is_documented_size(self):
        assert MAX_RANK >= 64

    def test_at_limit(self):
        assert build_root_system([("A", MAX_RANK)]).rank == MAX_RANK
        assert build_root_system([("A", MAX_RANK - 3), ("B", 3)]).rank == MAX_RANK

    @pytest.mark.parametrize(
        "spec", [[("A", MAX_RANK + 1)], [("A", MAX_RANK - 2), ("A", 3)]]
    )
    def test_above_limit(self, spec):
        with pytest.raises(RootSystemError, match="exceeds the limit"):
            build_root_system(spec)

    @pytest.mark.parametrize("rank", ["2", 2.0, None, True])
    def test_build_refuses_a_rank_that_is_not_an_int(self, rank):
        message = f"^invalid component A{rank}: rank is not an int$"
        with pytest.raises(RootSystemError, match=message):
            build_root_system([("A", rank)])
        with pytest.raises(RootSystemError, match=message):
            build_root_system([("B", 2), ("A", rank)])

    def test_build_refuses_a_huge_rank_before_building(self):
        with pytest.raises(RootSystemError, match=f"^total rank exceeds the limit {MAX_RANK}$"):
            build_root_system([("A", 10**9)])

    @pytest.mark.parametrize("rank", [True, 2.0])
    def test_rank_must_be_an_int(self, rank):
        # A bool rank would be written as `true`, which no reader accepts.
        message = f"^invalid component A{rank}: rank is not an int$"
        with pytest.raises(RootSystemError, match=message):
            build_root_system([("A", rank)])
        labels = tuple(f"x{k}" for k in range(int(rank)))
        with pytest.raises(RootSystemError, match=message):
            RootSystem([Component("A", rank, labels)])

    def test_constructor_checks_limit(self):
        labels = tuple(f"x{i}" for i in range(MAX_RANK + 1))
        assert RootSystem([Component("A", MAX_RANK, labels[:-1])]).rank == MAX_RANK
        with pytest.raises(RootSystemError, match=f"total rank {MAX_RANK + 1} exceeds"):
            RootSystem([Component("A", MAX_RANK, labels[:-1]), Component("A", 1, labels[-1:])])


class TestCartanInteger:
    """Cartan integers <alpha^vee, lam> as validation pairs them, through
    `coroot_table`."""

    def test_diagonal(self):
        rs = build_root_system([("A", 2)])
        assert pairings(rs, lv(a1=1))["a1"] == 2

    def test_linearity_example(self):
        rs = build_root_system([("A", 2)])
        assert pairings(rs, lv(a1=1, a2=1))["a1"] == 1

    def test_g2_off_diagonal(self):
        rs = build_root_system([("G", 2)])
        assert pairings(rs, lv(a1=1))["a2"] == -3

    def test_unknown_label(self):
        rs = build_root_system([("A", 1)])
        with pytest.raises(RootSystemError, match="^unknown simple-root label 'a9'$"):
            pairings(rs, lv(a1=1, a9=1))

    @given(
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
    )
    def test_linearity_property(self, xs, ys):
        rs = build_root_system([("B", 2), ("A", 2)])
        labels = rs.simple_roots
        v = LatticeVector(dict(zip(labels, xs)))
        w = LatticeVector(dict(zip(labels, ys)))
        total, one, other = pairings(rs, v + w), pairings(rs, v), pairings(rs, w)
        for a in labels:
            assert total[a] == one[a] + other[a]


class TestLatticeVector:
    def test_zero_coefficients_dropped(self):
        assert lv(a1=0, a2=3) == lv(a2=3)
        assert lv(a1=0).is_zero()

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(2), 1.7, 2.0, True, "1", None])
    def test_non_int_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match="a1"):
            LatticeVector({"a1": value})
        with pytest.raises(ValueError):
            LatticeVector([("a2", 1), ("a1", value)])

    @pytest.mark.parametrize("label", [1, True, None, b"a1", ("a1",)])
    def test_non_str_label_rejected(self, label):
        # Refused on construction: printing and `items` sort the labels.
        message = f"^label {re.escape(repr(label))} is not a str$"
        with pytest.raises(ValueError, match=message):
            LatticeVector({label: 2})
        with pytest.raises(ValueError, match=message):
            LatticeVector([("a1", 1), (label, 1)])

    def test_scaling_by_a_fraction_rejected(self):
        with pytest.raises(ValueError):
            lv(a1=2) * Fraction(1, 2)


class TestFunctional:
    @pytest.mark.parametrize(
        "value", [0.5, 0.1, 1.0, "1/2", True, False, Fraction(1, 3), Fraction(4, 3), None]
    )
    def test_value_outside_half_integers_rejected(self, value):
        with pytest.raises(ValueError, match=f"value 1 .*{re.escape(repr(value))}"):
            Functional([1, value])

    def test_values_stored_doubled(self):
        f = Functional([1, Fraction(-3, 2), 0, Fraction(4, 2)])
        assert f.twice == (2, -3, 0, 4)
        assert all(type(t) is int for t in f.twice)
        assert f.values == (1, Fraction(-3, 2), 0, 2)
        assert [f[i] for i in range(len(f))] == list(f.values)
        assert all(type(v) is Fraction for v in f.values)

    def test_text_matches_fraction_text(self):
        values = [Fraction(t, 2) for t in range(-7, 8)]
        assert str(Functional(values)) == "(" + ", ".join(map(str, values)) + ")"
        assert str(Functional([])) == "()"

    def test_sum_restrict_and_equality_on_doubled_values(self):
        f = Functional([Fraction(1, 2), 1, Fraction(-1, 2)])
        g = Functional([Fraction(1, 2), 0, 2])
        assert (f + g).twice == (2, 2, 3)
        assert f.restrict([2, 0]) == Functional([Fraction(-1, 2), Fraction(1, 2)])
        assert Functional([1, 2]) == Functional([Fraction(2, 2), Fraction(4, 2)])
        assert hash(Functional([1, 2])) == hash(Functional([Fraction(1), Fraction(2)]))
        with pytest.raises(ValueError, match="length"):
            f + Functional([1])


    @pytest.mark.parametrize(
        "indices",
        [[], [5], [7, 2], [4, 4], list(range(37, -1, -1)),
         [random.Random(38).randrange(40) for _ in range(38)]],
    )
    def test_restrict_matches_the_generator_form(self, indices):
        f = Functional([Fraction(k - 20, 2) for k in range(40)])
        got = f.restrict(indices)
        assert got.twice == tuple(f.twice[i] for i in indices)
        assert type(got.twice) is tuple


class TestSupport:
    def test_single(self):
        assert lv(a2=1).support == {"a2"}

    def test_two(self):
        assert lv(a1=1, a2=2).support == {"a1", "a2"}

    def test_zero(self):
        assert LatticeVector().support == frozenset()


class TestRestrictedCoroot:
    def test_on_self(self):
        rs = build_root_system([("A", 1)])
        f = restricted_coroot(rs, "a1", [lv(a1=1)])
        assert f.values == (2,)

    def test_linearity(self):
        rs = build_root_system([("A", 1)])
        f = restricted_coroot(rs, "a1", [lv(a1=2)])
        assert f.values == (4,)

    def test_a2_sum(self):
        rs = build_root_system([("A", 2)])
        f = restricted_coroot(rs, "a1", [lv(a1=1, a2=1)])
        assert f.values == (1,)


class TestDetectSubdiagram:
    def test_full_b3(self):
        rs = build_root_system([("B", 3)])
        comps = detect_subdiagram_type(rs, {"a1", "a2", "a3"})
        assert [(c.series, c.rank, c.labels) for c in comps] == [("B", 3, ("a1", "a2", "a3"))]

    def test_disconnected(self):
        rs = build_root_system([("A", 3)])
        comps = detect_subdiagram_type(rs, {"a1", "a3"})
        assert [(c.series, c.rank) for c in comps] == [("A", 1), ("A", 1)]

    def test_b2_inside_b3(self):
        rs = build_root_system([("B", 3)])
        # Oracle: the induced 2x2 Cartan block equals the B_2 matrix in the
        # (a2, a3) ordering.
        assert rs.cartan_entry("a2", "a3") == -1
        assert rs.cartan_entry("a3", "a2") == -2
        comps = detect_subdiagram_type(rs, {"a2", "a3"})
        assert [(c.series, c.rank, c.labels) for c in comps] == [("B", 2, ("a2", "a3"))]

    def test_short_long_pair_in_c3_reports_b2(self):
        rs = build_root_system([("C", 3)])
        (comp,) = detect_subdiagram_type(rs, {"a2", "a3"})
        assert (comp.series, comp.labels) == ("B", ("a3", "a2"))

    def test_g2_pair(self):
        rs = build_root_system([("G", 2)])
        (comp,) = detect_subdiagram_type(rs, {"a1", "a2"})
        assert (comp.series, comp.labels) == ("G", ("a1", "a2"))

    def test_orthogonal_union_is_concatenation(self):
        rs = build_root_system([("B", 3), ("A", 2)])
        left = detect_subdiagram_type(rs, {"a1", "a2"})
        right = detect_subdiagram_type(rs, {"a4", "a5"})
        both = detect_subdiagram_type(rs, {"a1", "a2", "a4", "a5"})
        assert both == left + right


def _assert_recognizer_matches_oracle(rs):
    for size in range(1, rs.rank + 1):
        for subset in itertools.combinations(rs.simple_roots, size):
            ours = [(c.series, c.rank, c.labels) for c in detect_subdiagram_type(rs, subset)]
            oracle = [(c.series, c.rank, c.labels) for c in oracle_subdiagram_type(rs, subset)]
            assert ours == oracle, subset


class TestRecognizerAgainstPermutationSearch:
    @pytest.mark.parametrize(
        "spec",
        [
            [("E", 6)], [("E", 7)], [("E", 8)], [("F", 4)],
            [("D", 4)], [("D", 5)], [("D", 8)], [("B", 5)], [("C", 5)],
            [("G", 2)], [("A", 6)],
            [("B", 2), ("C", 3), ("G", 2)],
        ],
    )
    def test_every_label_subset(self, spec):
        _assert_recognizer_matches_oracle(build_root_system(spec))

    @pytest.mark.parametrize(
        "series,labels",
        [
            ("E", ("a12", "a9", "a3", "a2", "a10", "a1")),
            ("D", ("a9", "a2", "a11", "a1", "a3")),
            ("F", ("a7", "a1", "a12", "a2")),
            ("C", ("a4", "a10", "a1", "a3")),
        ],
    )
    def test_labels_out_of_index_order(self, series, labels):
        # Localized systems list labels in canonical order, so _label_key
        # order and the ambient index order differ.
        _assert_recognizer_matches_oracle(RootSystem([Component(series, len(labels), labels)]))

    def test_every_coatom_of_a_wide_sum(self):
        # Wide sums have rank 24-48, beyond the every-subset tests above.
        rs = max(wide_systems(301, 4), key=lambda s: s.rs.rank).rs
        assert rs.rank >= 24
        full = frozenset(rs.simple_roots)
        for x in rs.simple_roots:
            subset = full - {x}
            ours = [(c.series, c.rank, c.labels) for c in detect_subdiagram_type(rs, subset)]
            oracle = [(c.series, c.rank, c.labels) for c in oracle_subdiagram_type(rs, subset)]
            assert ours == oracle, x

    def test_column_order_does_not_matter(self, monkeypatch):
        # A column is a frozenset, iterated in an order that PYTHONHASHSEED
        # sets; the recognizer must give the same answer in every order.
        types = (
            [("A", k) for k in range(1, 9)] + [("B", k) for k in range(2, 9)]
            + [("C", k) for k in range(3, 9)] + [("D", k) for k in range(4, 9)]
            + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
        )
        column = RootSystem.column
        cases = [
            (rs, subset)
            for rs in (build_root_system([t]) for t in types)
            for size in range(1, rs.rank + 1)
            for subset in itertools.combinations(rs.simple_roots, size)
        ]
        assert len(cases) == 2455
        answers = []
        for order in (None, False, True):
            if order is not None:
                monkeypatch.setattr(
                    RootSystem, "column",
                    lambda rs, label, rev=order: sorted(column(rs, label), reverse=rev),
                )
            answers.append([detect_subdiagram_type(rs, subset) for rs, subset in cases])
        assert answers[0] == answers[1] == answers[2]


class TestPositiveRoots:
    def test_a1(self):
        rs = build_root_system([("A", 1)])
        assert positive_roots(rs) == {lv(a1=1)}

    def test_a2_count(self):
        assert len(positive_roots(build_root_system([("A", 2)]))) == 3

    def test_g2_count(self):
        assert len(positive_roots(build_root_system([("G", 2)]))) == 6

    @pytest.mark.parametrize(
        "spec",
        [
            [("A", 1)], [("A", 2)], [("A", 3)], [("A", 4)],
            [("B", 2)], [("B", 3)], [("B", 4)],
            [("C", 3)], [("D", 4)], [("F", 4)], [("G", 2)],
            [("B", 2), ("A", 1)],
            [("E", 6)], [("E", 7)], [("E", 8)], [("D", 5)], [("D", 8)], [("C", 5)],
            [("A", 3), ("B", 2), ("G", 2)], [("F", 4), ("A", 1)],
            [("G", 2), ("C", 3), ("D", 4)],
        ],
    )
    def test_against_reflection_oracle(self, spec):
        rs = build_root_system(spec)
        ours = positive_roots(rs)
        oracle = reflection_positive_roots(rs)
        assert ours == oracle
        assert len(ours) == formula_count(rs)

    def test_components_with_interleaved_labels(self):
        rs = RootSystem(
            [
                Component("B", 3, ("a5", "a1", "a3")),
                Component("G", 2, ("a4", "a2")),
                Component("A", 2, ("a7", "a6")),
            ]
        )
        ours = positive_roots(rs)
        assert ours == reflection_positive_roots(rs)
        assert len(ours) == formula_count(rs)

    @pytest.mark.parametrize("spec", [MIXED_SPEC, MAX_RANK_SPEC], ids=["mixed", "max-rank"])
    def test_vectors_equal_vectors_built_from_their_coefficients(self, spec):
        # positive_roots builds each vector's coefficients itself, unchecked.
        rs = build_root_system(spec)
        component_of = {lab: comp for comp in rs.components for lab in comp.labels}
        for v in positive_roots(rs):
            coeffs = v._coeffs
            assert coeffs and all(type(c) is int and c > 0 for c in coeffs.values())
            assert len({component_of[lab] for lab in coeffs}) == 1, str(v)
            rebuilt = LatticeVector(dict(v.items()))
            assert v == rebuilt and hash(v) == hash(rebuilt)

    def test_every_component_to_rank_16(self):
        for series, rank in EVERY_COMPONENT:
            if rank <= 16:
                rs = build_root_system([(series, rank)])
                ours = positive_roots(rs)
                assert len(ours) == formula_count(rs), (series, rank)
                if rank <= 8:
                    assert ours == reflection_positive_roots(rs), (series, rank)


class TestVectorArithmetic:
    @pytest.mark.parametrize("factor", [Fraction(1, 2), Fraction(2), True, False, 2.0, "2"])
    def test_scaling_by_a_non_int_rejected(self, factor):
        for v in (lv(a1=2, a2=-1), LatticeVector()):
            with pytest.raises(ValueError, match="factor"):
                v * factor
            with pytest.raises(ValueError, match="factor"):
                factor * v

    @given(st.dictionaries(st.sampled_from(["a1", "a2", "a3", "a4"]), st.integers(-9, 9)))
    def test_sum_with_negation_is_the_zero_vector(self, coeffs):
        x = LatticeVector(coeffs)
        for zero in (x + (-x), x - x, 0 * x, x * 0):
            assert zero == LatticeVector() and hash(zero) == hash(LatticeVector())
            assert zero.is_zero() and str(zero) == "0"

    @given(
        st.dictionaries(st.sampled_from(["a1", "a2", "a3"]), st.integers(-5, 5)),
        st.dictionaries(st.sampled_from(["a2", "a3", "a4"]), st.integers(-5, 5)),
        st.integers(-3, 3),
    )
    def test_results_equal_vectors_built_from_their_coefficients(self, xs, ys, n):
        x, y = LatticeVector(xs), LatticeVector(ys)
        labels = set(xs) | set(ys)
        expected = {
            "+": {a: xs.get(a, 0) + ys.get(a, 0) for a in labels},
            "-": {a: xs.get(a, 0) - ys.get(a, 0) for a in labels},
            "neg": {a: -c for a, c in xs.items()},
            "*": {a: n * c for a, c in xs.items()},
            "half": xs,
        }
        got = {"+": x + y, "-": x - y, "neg": -x, "*": x * n, "half": halved(2 * x)}
        for op, v in got.items():
            assert v == LatticeVector(expected[op]), op
            assert hash(v) == hash(LatticeVector(expected[op])), op
            assert all(type(c) is int and c for _, c in v.items()), op
        assert n * x == x * n

    def test_halved(self):
        assert halved(lv(a1=2, a2=-4)) == lv(a1=1, a2=-2)
        assert halved(lv(a1=2, a2=3)) is None
        assert halved(LatticeVector()) == LatticeVector()

    def test_results_refuse_assignment(self):
        rs = build_root_system([("B", 3)])
        x, y = lv(a1=2, a2=-1), lv(a2=1, a3=4)
        results = [x + y, x - y, -x, 3 * x, x * 3, halved(2 * x),
                   *positive_roots(rs)]
        for v in results:
            before = v._coeffs
            with pytest.raises(AttributeError):
                v._coeffs = {"a1": 0.5}
            with pytest.raises(AttributeError):
                del v._coeffs
            with pytest.raises(AttributeError):
                v.extra = 1
            assert v._coeffs is before


def _simple_label_by_sorted_items(rs, v):
    items = list(v.items())
    if len(items) == 1 and items[0][1] == 1 and items[0][0] in rs:
        return items[0][0]
    return None


class TestAsSimpleLabel:
    RS = build_root_system([("A", 3)])

    @pytest.mark.parametrize(
        "coeffs,label",
        [
            ({"a2": 1}, "a2"),
            ({"a3": 1}, "a3"),
            ({"a2": 2}, None),
            ({"a2": -1}, None),
            ({"a1": 1, "a2": 1}, None),
            ({}, None),
            ({"a9": 1}, None),
            ({"b": 1}, None),
        ],
    )
    def test_examples(self, coeffs, label):
        assert self.RS.as_simple_label(LatticeVector(coeffs)) == label

    @given(st.dictionaries(st.sampled_from(["a1", "a2", "a3", "a4", "x"]), st.integers(-2, 2)))
    def test_same_as_reading_sorted_items(self, coeffs):
        v = LatticeVector(coeffs)
        assert self.RS.as_simple_label(v) == _simple_label_by_sorted_items(self.RS, v)


# Every series at each rank the reflection oracle closes in well under a second.
SERIES_SPECS = (
    [("A", n) for n in range(1, 11)]
    + [("B", n) for n in range(2, 11)]
    + [("C", n) for n in range(3, 11)]
    + [("D", n) for n in range(4, 11)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _highest_root(series, n):
    """The highest root of a component built with labels a1..an, by coefficient."""
    if series == "A":
        coeffs = [1] * n
    elif series == "B":
        coeffs = [1] + [2] * (n - 1)
    elif series == "C":
        coeffs = [2] * (n - 1) + [1]
    elif series == "D":
        coeffs = [1] + [2] * (n - 3) + [1, 1]
    else:
        coeffs = {"E8": [2, 3, 4, 6, 5, 4, 3, 2], "F4": [2, 3, 4, 2], "G2": [2, 3]}[f"{series}{n}"]
    return LatticeVector({f"a{i + 1}": c for i, c in enumerate(coeffs)})


def _height(v):
    return sum(c for _, c in v.items())


class TestPositiveRootsEverySeries:
    @pytest.mark.parametrize("series,rank", SERIES_SPECS, ids=lambda x: str(x))
    def test_against_reflection_oracle(self, series, rank):
        rs = build_root_system([(series, rank)])
        ours = positive_roots(rs)
        assert ours == reflection_positive_roots(rs)
        assert len(ours) == formula_count(rs)

    @pytest.mark.parametrize("series,rank", SERIES_SPECS, ids=lambda x: str(x))
    def test_root_strings(self, series, rank):
        # Humphreys 9.4: for beta != alpha_i, the alpha_i-string through beta
        # runs from beta - r*alpha_i to beta + q*alpha_i with
        # r - q = <beta, alpha_i^vee>.  So beta + alpha_i is a root exactly when
        # r exceeds that pairing.  This checks the output without generating
        # roots, by reflections or otherwise.
        rs = build_root_system([(series, rank)])
        cartan = block_cartan(rs)
        ours = positive_roots(rs)
        for beta in ours:
            for lab in rs.simple_roots:
                alpha = LatticeVector({lab: 1})
                r = 0
                while beta - (r + 1) * alpha in ours:
                    r += 1
                expected = beta != alpha and r > block_pairing(cartan, lab, beta)
                assert (beta + alpha in ours) == expected, (str(beta), lab)

    def test_exceptional_components_with_interleaved_labels(self):
        rs = RootSystem(
            [
                Component("E", 8, ("a14", "a2", "a9", "a5", "a11", "a7", "a1", "a12")),
                Component("F", 4, ("a3", "a13", "a6", "a10")),
                Component("G", 2, ("a8", "a4")),
            ]
        )
        ours = positive_roots(rs)
        assert ours == reflection_positive_roots(rs)
        assert len(ours) == formula_count(rs) == 150

    @pytest.mark.parametrize("series", ["A", "B", "C", "D"])
    def test_count_at_max_rank(self, series):
        rs = build_root_system([(series, MAX_RANK)])
        ours = positive_roots(rs)
        assert len(ours) == formula_count(rs)
        assert _highest_root(series, MAX_RANK) in ours
        assert all(c > 0 for v in ours for _, c in v.items())

    @pytest.mark.parametrize("series,rank", [("E", 8), ("F", 4), ("G", 2)])
    def test_highest_root_present(self, series, rank):
        ours = positive_roots(build_root_system([(series, rank)]))
        top = _highest_root(series, rank)
        assert [v for v in ours if _height(v) >= _height(top)] == [top]

    @pytest.mark.parametrize(
        "series,rank", [s for s in SERIES_SPECS if s[0] != "E"] + [("E", 8)], ids=lambda x: str(x)
    )
    def test_highest_root_matches_oracle(self, series, rank):
        oracle = reflection_positive_roots(build_root_system([(series, rank)]))
        assert max(oracle, key=_height) == _highest_root(series, rank)


EVERY_COMPONENT = (
    [("A", n) for n in range(1, MAX_RANK + 1)]
    + [(series, n) for series in "BC" for n in range(2, MAX_RANK + 1)]
    + [("D", n) for n in range(3, MAX_RANK + 1)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


class TestComponentColumnTable:
    """`RootSystem` reads each component's columns and half-norms from one
    table filled from `component_cartan`, once per (series, rank)."""

    @staticmethod
    def _expected(series, rank, labels):
        cartan, lengths = component_cartan(series, rank)
        columns = {
            b: frozenset((labels[r], row[c]) for r, row in enumerate(cartan) if row[c])
            for c, b in enumerate(labels)
        }
        return columns, {b: x // 2 for b, x in zip(labels, lengths)}

    def test_every_component_reads_component_cartan(self):
        for series, rank in EVERY_COMPONENT:
            # The second build reads what the first put in the table.
            for _ in range(2):
                rs = build_root_system([(series, rank)])
                columns, half_norms = self._expected(series, rank, rs.simple_roots)
                assert {b: rs.column(b) for b in rs.simple_roots} == columns, (series, rank)
                assert {b: rs.half_norm(b) for b in rs.simple_roots} == half_norms

    def test_positions_map_to_each_systems_own_labels(self):
        rs = RootSystem(
            [Component("B", 3, ("x3", "x1", "x2")), Component("B", 3, ("y1", "y2", "y3"))]
        )
        for comp in rs.components:
            columns, half_norms = self._expected("B", 3, comp.labels)
            assert {b: rs.column(b) for b in comp.labels} == columns
            assert {b: rs.half_norm(b) for b in comp.labels} == half_norms

    def test_each_block_is_built_once(self, monkeypatch):
        calls = []
        original = rootlat.component_cartan

        def counting(series, rank):
            calls.append((series, rank))
            return original(series, rank)

        monkeypatch.setattr(rootlat, "component_cartan", counting)
        monkeypatch.setattr(rootlat, "_COMPONENTS", {})
        build_root_system([("B", 3), ("B", 3), ("A", 2)])
        build_root_system([("A", 2)])
        RootSystem([Component("B", 3, ("x1", "x2", "x3"))])
        assert calls == [("B", 3), ("A", 2)]

    def test_table_is_bounded(self):
        for series, rank in EVERY_COMPONENT:
            build_root_system([(series, rank)])
        for spec in ([("A", 0)], [("E", 9)], [("A", MAX_RANK + 1)], [("Q", 2)], [("A", 2.0)]):
            with pytest.raises(RootSystemError):
                build_root_system(spec)
        table = rootlat._COMPONENTS
        assert len(table) <= 7 * MAX_RANK
        assert set(table) <= set(EVERY_COMPONENT)

    def test_refuses_a_rank_above_the_limit_before_building(self):
        with pytest.raises(RootSystemError, match="exceeds the limit"):
            rootlat._component("A", 10**9)
        assert ("A", 10**9) not in rootlat._COMPONENTS

    @pytest.mark.parametrize("rank", [2.0, True])
    def test_a_rank_equal_to_a_built_int_is_still_refused(self, rank):
        # A dict finds 2.0 and True under the keys 2 and 1.
        build_root_system([("A", 2)])
        build_root_system([("A", 1)])
        message = f"^invalid component A{rank}: rank is not an int$"
        with pytest.raises(RootSystemError, match=message):
            build_root_system([("A", rank)])
        labels = tuple(f"x{k}" for k in range(int(rank)))
        with pytest.raises(RootSystemError, match=message):
            RootSystem([Component("A", rank, labels)])

    def test_component_cartan_returns_fresh_lists(self):
        build_root_system([("B", 3)])
        first, first_lengths = component_cartan("B", 3)
        second, second_lengths = component_cartan("B", 3)
        assert first == second and first is not second and first_lengths is not second_lengths
        assert all(a is not b for a, b in zip(first, second))
        first[0][0] = 99
        first_lengths[0] = 99
        assert component_cartan("B", 3) == (second, second_lengths)
        assert build_root_system([("B", 3)]).cartan_entry("a1", "a1") == 2


class TestComponentRootTable:
    """`positive_roots` closes each component's roots once, by position, into
    the roots slot of the component's `_COMPONENTS` entry, and maps positions
    to labels on every call.  Only `positive_roots` fills a roots slot."""

    @pytest.fixture
    def table(self, monkeypatch):
        fresh = {}
        monkeypatch.setattr(rootlat, "_COMPONENTS", fresh)
        return fresh

    @staticmethod
    def _filled(table):
        return {key for key, (_, _, roots) in table.items() if roots is not None}

    @pytest.mark.parametrize("index", range(3), ids=REFERENCE_IDS)
    def test_equal_with_an_empty_and_a_filled_table(self, monkeypatch, table, index):
        rs = reference_systems()[index]
        filling = positive_roots(rs)
        assert self._filled(table)
        filled = positive_roots(rs)
        monkeypatch.setattr(rootlat, "_COMPONENTS", {})
        assert filling == filled == positive_roots(rs)
        if index != 1:
            assert filled == reflection_positive_roots(rs)

    def test_two_components_of_one_kind_share_an_entry(self, table):
        rs = RootSystem(
            [Component("B", 3, ("x3", "x1", "x2")), Component("B", 3, ("y1", "y2", "y3"))]
        )
        ours = positive_roots(rs)
        assert self._filled(table) == {("B", 3)} and len(ours) == 18
        assert ours == reflection_positive_roots(rs)

    def test_building_systems_leaves_it_empty(self, table):
        systems = [e.system for e in catalog_entries()]
        systems += [loads(dumps(s)) for s in systems]
        build_root_system(MAX_RANK_SPEC)
        for s in systems:
            labels = s.rs.simple_roots
            for size in range(1, len(labels) + 1):
                localize(s, labels[:size])
                s.rs.induced(labels[-size:])
            validate_system(s)
            critical_roots(s)
        assert table and self._filled(table) == set()

    def test_slots_fill_only_for_valid_components(self, table):
        valid = [(series, rank) for series, rank in EVERY_COMPONENT if rank <= 8]
        for series, rank in valid:
            positive_roots(build_root_system([(series, rank)]))
        for spec in ([("A", 0)], [("E", 9)], [("A", MAX_RANK + 1)], [("Q", 2)], [("A", 2.0)]):
            with pytest.raises(RootSystemError):
                positive_roots(build_root_system(spec))
        assert self._filled(table) == set(table) == set(valid)
        assert len(table) <= 7 * MAX_RANK

    def test_every_vector_built_has_str_labels(self, monkeypatch, table):
        coeffs = []
        original = rootlat._set_coeffs

        def recording(obj, value):
            coeffs.append(value)
            original(obj, value)

        monkeypatch.setattr(rootlat, "_set_coeffs", recording)
        counts = [len(positive_roots(rs)) for rs in reference_systems()]
        assert len(coeffs) == sum(counts)
        assert all(type(lab) is str for c in coeffs for lab in c)
        # The table itself holds positions and coefficients, no vectors.
        for _, _, roots in table.values():
            pairs = [pair for root in roots for pair in root]
            assert all(type(p) is int and type(c) is int and c > 0 for p, c in pairs)
