"""Built-in regression systems with pinned expected behavior.

Small validated spherical systems used by the test suite and exposed via
the CLI: simple-root systems with equal or split color pairs, the four
full-support rank-1 chains (A, B, C chains and the G_2 pair), and a few
degenerate ones.  They live in one table, `CATALOG`, keyed by entry name,
and every system is reached by that name: `catalog_entry(name)` builds
only its own row.  The expected values (type map, rigidity, criticality)
were computed with the brute-force oracle and reviewed by hand.
"""
from __future__ import annotations

from typing import Dict, List

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


# name: (description, components, spherical roots, colors as (id, moved_by,
# phi), one type letter per simple root, distinguished (index, condition)
# pairs, (critical, vacuous) per spherical root).  A system is rigid when it
# has no distinguished root.
CATALOG = {
    "p1": (
        "simple spherical root on A1 with two equal colors",
        [("A", 1)], [{"a1": 1}],
        [("Dp", ["a1"], [1]), ("Dm", ["a1"], [1])],
        "b", [(0, 1)], [(False, False)],
    ),
    "p1xp1": (
        "product of two equal-color rank-1 systems on A1 x A1",
        [("A", 1), ("A", 1)], [{"a1": 1}, {"a2": 1}],
        [("D1p", ["a1"], [1, 0]), ("D1m", ["a1"], [1, 0]),
         ("D2p", ["a2"], [0, 1]), ("D2m", ["a2"], [0, 1])],
        "bb", [(0, 1), (1, 1)], [(False, False), (False, False)],
    ),
    "group-a1a1": (
        "group compactification data on A1 x A1 (rank 2, rigid)",
        [("A", 1), ("A", 1)], [{"a1": 1}, {"a2": 1}],
        [("Dp", ["a1", "a2"], [1, 1]), ("D1m", ["a1"], [1, -1]),
         ("D2m", ["a2"], [-1, 1])],
        "bb", [], [(True, False), (True, False)],
    ),
    "a2-full-support": (
        "full chain sum on A2 (subgroup gl_2 inside sl_3)",
        [("A", 2)], [{"a1": 1, "a2": 1}],
        [("D1", ["a1"], [1]), ("D2", ["a2"], [1])],
        "dd", [], [(True, True)],
    ),
    "a3-full-support": (
        "full chain sum on A3 with colorless interior",
        [("A", 3)], [{"a1": 1, "a2": 1, "a3": 1}],
        [("D1", ["a1"], [1]), ("D2", ["a3"], [1])],
        "dad", [], [(True, True)],
    ),
    "b2-short-sum": (
        "full chain sum on B2 with type-a tail (subgroup gl_2-type inside so_5)",
        [("B", 2)], [{"a1": 1, "a2": 1}],
        [("D1", ["a1"], [1])],
        "da", [(0, 2)], [(False, False)],
    ),
    "b3-chain-sum": (
        "full chain sum on B3 with type-a tail",
        [("B", 3)], [{"a1": 1, "a2": 1, "a3": 1}],
        [("D1", ["a1"], [1])],
        "daa", [(0, 2)], [(False, False)],
    ),
    "c3-double-middle": (
        "doubled-middle chain on C3 (sp_4 x so_2 pattern inside sp_6)",
        [("C", 3)], [{"a1": 1, "a2": 2, "a3": 1}],
        [("D1", ["a1"], [0])],
        "daa", [], [(True, True)],
    ),
    "g2-long-plus-short": (
        "spherical root a1 + a2 on G2",
        [("G", 2)], [{"a1": 1, "a2": 1}],
        [("D1", ["a1"], [1])],
        "da", [], [(True, True)],
    ),
    "g2-long-plus-double-short": (
        "spherical root a1 + 2*a2 on G2",
        [("G", 2)], [{"a1": 1, "a2": 2}],
        [("D1", ["a2"], [1])],
        "ad", [(0, 3)], [(False, False)],
    ),
    "diag-a1a1": (
        "diagonal rank-1 root across A1 x A1 with one shared color",
        [("A", 1), ("A", 1)], [{"a1": 1, "a2": 1}],
        [("D", ["a1", "a2"], [2])],
        "dd", [], [(True, True)],
    ),
    "flag-a2": (
        "rank-0 system on A2: every simple root of type a",
        [("A", 2)], [], [],
        "aa", [], [],
    ),
}


def catalog_entry(name: str) -> CatalogEntry:
    """Build the entry named `name` from its row of `CATALOG` alone."""
    try:
        description, components, psi, colors, types, distinguished, critical = CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}") from None
    rs = build_root_system(components)
    system = SphericalSystem(
        rs,
        [LatticeVector(sigma) for sigma in psi],
        [Color(id, moved_by, Functional(phi)) for id, moved_by, phi in colors],
    )
    expected = {
        "type_map": dict(zip(rs.simple_roots, types)),
        "rigid": not distinguished,
        "distinguished": tuple(distinguished),
        "critical": tuple((j, crit, vac) for j, (crit, vac) in enumerate(critical)),
    }
    return CatalogEntry(name, description, system, expected)


def catalog_entries() -> List[CatalogEntry]:
    return [catalog_entry(name) for name in CATALOG]
