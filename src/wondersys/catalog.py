"""Built-in regression systems with pinned expected behavior.

Small validated spherical systems used by the test suite and exposed via
the CLI: simple-root systems with equal or split color pairs, the four
full-support rank-1 chains (A, B, C chains and the G_2 pair), and a few
degenerate helpers.  The expected values (type map, rigidity, criticality)
were computed with the brute-force oracle and reviewed by hand.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from .rootlat import Functional, LatticeVector, Record, _set, build_root_system
from .sphsys import Color, SphericalSystem


class CatalogEntry(Record):
    __slots__ = ("name", "description", "system", "expected")

    def __init__(
        self,
        name: str,
        description: str,
        system: SphericalSystem,
        expected: Dict[str, object],
    ):
        _set(self, "name", name)
        _set(self, "description", description)
        _set(self, "system", system)
        _set(self, "expected", expected)


def _lv(**coeffs: int) -> LatticeVector:
    return LatticeVector(coeffs)


def projective_line() -> SphericalSystem:
    """Rank-1 system on A_1 whose two colors carry equal functionals."""
    rs = build_root_system([("A", 1)])
    psi = [_lv(a1=1)]
    colors = [
        Color("Dp", frozenset({"a1"}), Functional([1])),
        Color("Dm", frozenset({"a1"}), Functional([1])),
    ]
    return SphericalSystem(rs, psi, colors)


def projective_line_pair() -> SphericalSystem:
    """Product of two copies of the equal-color rank-1 system."""
    rs = build_root_system([("A", 1), ("A", 1)])
    psi = [_lv(a1=1), _lv(a2=1)]
    colors = [
        Color("D1p", frozenset({"a1"}), Functional([1, 0])),
        Color("D1m", frozenset({"a1"}), Functional([1, 0])),
        Color("D2p", frozenset({"a2"}), Functional([0, 1])),
        Color("D2m", frozenset({"a2"}), Functional([0, 1])),
    ]
    return SphericalSystem(rs, psi, colors)


def group_compactification_a1a1() -> SphericalSystem:
    """Rank-2 group compactification data on A_1 x A_1: one shared color
    plus one split color per factor."""
    rs = build_root_system([("A", 1), ("A", 1)])
    psi = [_lv(a1=1), _lv(a2=1)]
    colors = [
        Color("Dp", frozenset({"a1", "a2"}), Functional([1, 1])),
        Color("D1m", frozenset({"a1"}), Functional([1, -1])),
        Color("D2m", frozenset({"a2"}), Functional([-1, 1])),
    ]
    return SphericalSystem(rs, psi, colors)


def full_support_chain_a(n: int = 2) -> SphericalSystem:
    """A_n with the full chain sum as its single spherical root; the two
    end roots each carry one color, the interior is colorless."""
    rs = build_root_system([("A", n)])
    sigma = LatticeVector({f"a{i}": 1 for i in range(1, n + 1)})
    colors = [Color("D1", frozenset({"a1"}), Functional([1]))]
    if n >= 2:
        colors.append(Color("D2", frozenset({f"a{n}"}), Functional([1])))
    return SphericalSystem(rs, [sigma], colors)


def short_chain_sum_b(n: int = 2) -> SphericalSystem:
    """B_n with the full chain sum as spherical root and a colorless tail."""
    rs = build_root_system([("B", n)])
    sigma = LatticeVector({f"a{i}": 1 for i in range(1, n + 1)})
    colors = [Color("D1", frozenset({"a1"}), Functional([1]))]
    return SphericalSystem(rs, [sigma], colors)


def double_middle_chain_c(n: int = 3) -> SphericalSystem:
    """C_n with spherical root a1 + 2(a2 + ... + a_{n-1}) + a_n."""
    rs = build_root_system([("C", n)])
    coeffs = {f"a{i}": 2 for i in range(2, n)}
    coeffs["a1"] = 1
    coeffs[f"a{n}"] = 1
    colors = [Color("D1", frozenset({"a1"}), Functional([0]))]
    return SphericalSystem(rs, [LatticeVector(coeffs)], colors)


def g2_long_plus_short() -> SphericalSystem:
    """G_2 with spherical root a1 + a2 (coefficient 1 on the short root)."""
    rs = build_root_system([("G", 2)])
    colors = [Color("D1", frozenset({"a1"}), Functional([1]))]
    return SphericalSystem(rs, [_lv(a1=1, a2=1)], colors)


def g2_long_plus_double_short() -> SphericalSystem:
    """G_2 with spherical root a1 + 2*a2."""
    rs = build_root_system([("G", 2)])
    colors = [Color("D1", frozenset({"a2"}), Functional([1]))]
    return SphericalSystem(rs, [_lv(a1=1, a2=2)], colors)


def diagonal_a1a1() -> SphericalSystem:
    """Rank-1 system across two A_1 components with one shared color."""
    rs = build_root_system([("A", 1), ("A", 1)])
    colors = [Color("D", frozenset({"a1", "a2"}), Functional([2]))]
    return SphericalSystem(rs, [_lv(a1=1, a2=1)], colors)


def flag_a2() -> SphericalSystem:
    """Rank-0 system on A_2: no spherical roots, no colors."""
    return SphericalSystem(build_root_system([("A", 2)]), [], [])


def catalog_entries() -> List[CatalogEntry]:
    return [
        CatalogEntry(
            "p1",
            "simple spherical root on A1 with two equal colors",
            projective_line(),
            {
                "type_map": {"a1": "b"},
                "rigid": False,
                "distinguished": ((0, 1),),
                "critical": ((0, False, False),),
            },
        ),
        CatalogEntry(
            "p1xp1",
            "product of two equal-color rank-1 systems on A1 x A1",
            projective_line_pair(),
            {
                "type_map": {"a1": "b", "a2": "b"},
                "rigid": False,
                "distinguished": ((0, 1), (1, 1)),
                "critical": ((0, False, False), (1, False, False)),
            },
        ),
        CatalogEntry(
            "group-a1a1",
            "group compactification data on A1 x A1 (rank 2, rigid)",
            group_compactification_a1a1(),
            {
                "type_map": {"a1": "b", "a2": "b"},
                "rigid": True,
                "distinguished": (),
                "critical": ((0, True, False), (1, True, False)),
            },
        ),
        CatalogEntry(
            "a2-full-support",
            "full chain sum on A2 (subgroup gl_2 inside sl_3)",
            full_support_chain_a(2),
            {
                "type_map": {"a1": "d", "a2": "d"},
                "rigid": True,
                "distinguished": (),
                "critical": ((0, True, True),),
            },
        ),
        CatalogEntry(
            "a3-full-support",
            "full chain sum on A3 with colorless interior",
            full_support_chain_a(3),
            {
                "type_map": {"a1": "d", "a2": "a", "a3": "d"},
                "rigid": True,
                "distinguished": (),
                "critical": ((0, True, True),),
            },
        ),
        CatalogEntry(
            "b2-short-sum",
            "full chain sum on B2 with type-a tail (subgroup gl_2-type inside so_5)",
            short_chain_sum_b(2),
            {
                "type_map": {"a1": "d", "a2": "a"},
                "rigid": False,
                "distinguished": ((0, 2),),
                "critical": ((0, False, False),),
            },
        ),
        CatalogEntry(
            "b3-chain-sum",
            "full chain sum on B3 with type-a tail",
            short_chain_sum_b(3),
            {
                "type_map": {"a1": "d", "a2": "a", "a3": "a"},
                "rigid": False,
                "distinguished": ((0, 2),),
                "critical": ((0, False, False),),
            },
        ),
        CatalogEntry(
            "c3-double-middle",
            "doubled-middle chain on C3 (sp_4 x so_2 pattern inside sp_6)",
            double_middle_chain_c(3),
            {
                "type_map": {"a1": "d", "a2": "a", "a3": "a"},
                "rigid": True,
                "distinguished": (),
                "critical": ((0, True, True),),
            },
        ),
        CatalogEntry(
            "g2-long-plus-short",
            "spherical root a1 + a2 on G2",
            g2_long_plus_short(),
            {
                "type_map": {"a1": "d", "a2": "a"},
                "rigid": True,
                "distinguished": (),
                "critical": ((0, True, True),),
            },
        ),
        CatalogEntry(
            "g2-long-plus-double-short",
            "spherical root a1 + 2*a2 on G2",
            g2_long_plus_double_short(),
            {
                "type_map": {"a1": "a", "a2": "d"},
                "rigid": False,
                "distinguished": ((0, 3),),
                "critical": ((0, False, False),),
            },
        ),
        CatalogEntry(
            "diag-a1a1",
            "diagonal rank-1 root across A1 x A1 with one shared color",
            diagonal_a1a1(),
            {
                "type_map": {"a1": "d", "a2": "d"},
                "rigid": True,
                "distinguished": (),
                "critical": ((0, True, True),),
            },
        ),
        CatalogEntry(
            "flag-a2",
            "rank-0 system on A2: every simple root of type a",
            flag_a2(),
            {
                "type_map": {"a1": "a", "a2": "a"},
                "rigid": True,
                "distinguished": (),
                "critical": (),
            },
        ),
    ]


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog_entries():
        if entry.name == name:
            return entry
    raise KeyError(f"unknown catalog entry {name!r}")
