"""Seeded generation of valid spherical systems for randomized tests.

A random system is a direct sum of small hand-verified primitives placed
on fresh components: functionals extend by zero across factors, which
preserves every axiom.  Each generated system is asserted valid.
"""
from __future__ import annotations

import random
from typing import Callable, List, Sequence, Tuple

from wondersys import (
    Color,
    Component,
    Functional,
    LatticeVector,
    RootSystem,
    SphericalSystem,
    validate_system,
)
from wondersys.catalog import catalog_entry
from wondersys import build_root_system


def doubled_root_a1() -> SphericalSystem:
    """A_1 with spherical root 2*a1 and its single half-coroot color."""
    rs = build_root_system([("A", 1)])
    colors = [Color("D", frozenset({"a1"}), Functional([2]))]
    return SphericalSystem(rs, [LatticeVector({"a1": 2})], colors)


def colored_flag(series: str, rank: int, colored: Sequence[int]) -> SphericalSystem:
    """Rank-0 system with the given simple roots carrying a zero-functional color."""
    rs = build_root_system([(series, rank)])
    colors = [
        Color(f"D{i}", frozenset({f"a{i}"}), Functional([])) for i in sorted(colored)
    ]
    return SphericalSystem(rs, [], colors)


def b2_colored_tail() -> SphericalSystem:
    """B_2 chain sum whose short root also carries a color (not distinguished)."""
    rs = build_root_system([("B", 2)])
    sigma = LatticeVector({"a1": 1, "a2": 1})
    colors = [
        Color("D1", frozenset({"a1"}), Functional([1])),
        Color("D2", frozenset({"a2"}), Functional([0])),
    ]
    return SphericalSystem(rs, [sigma], colors)


PRIMITIVES: List[Tuple[str, Callable[[], SphericalSystem]]] = [
    ("p1", lambda: catalog_entry("p1").system),
    ("doubled", doubled_root_a1),
    ("group", lambda: catalog_entry("group-a1a1").system),
    ("diag", lambda: catalog_entry("diag-a1a1").system),
    ("a2full", lambda: catalog_entry("a2-full-support").system),
    ("a3full", lambda: catalog_entry("a3-full-support").system),
    ("b2sum", lambda: catalog_entry("b2-short-sum").system),
    ("b3sum", lambda: catalog_entry("b3-chain-sum").system),
    ("b2tail", b2_colored_tail),
    ("c3mid", lambda: catalog_entry("c3-double-middle").system),
    ("g2sum", lambda: catalog_entry("g2-long-plus-short").system),
    ("g2dbl", lambda: catalog_entry("g2-long-plus-double-short").system),
    ("flag-a1", lambda: colored_flag("A", 1, [])),
    ("flag-a1c", lambda: colored_flag("A", 1, [1])),
    ("flag-a2c", lambda: colored_flag("A", 2, [1])),
    ("flag-b2c", lambda: colored_flag("B", 2, [2])),
]


def direct_sum(parts: Sequence[SphericalSystem]) -> SphericalSystem:
    """Disjoint union of systems on freshly relabelled components."""
    components: List[Component] = []
    psi: List[LatticeVector] = []
    colors: List[Color] = []
    offsets = []
    psi_offsets = []
    total_labels = 0
    total_psi = 0
    for part in parts:
        offsets.append(total_labels)
        psi_offsets.append(total_psi)
        total_labels += part.rs.rank
        total_psi += len(part.psi)

    def relabel(lab: str, offset: int) -> str:
        return f"a{int(lab[1:]) + offset}"

    for k, part in enumerate(parts):
        off = offsets[k]
        for comp in part.rs.components:
            components.append(
                Component(comp.series, comp.rank, tuple(relabel(l, off) for l in comp.labels))
            )
        for sigma in part.psi:
            psi.append(LatticeVector({relabel(l, off): v for l, v in sigma.items()}))
    for k, part in enumerate(parts):
        off = offsets[k]
        before = psi_offsets[k]
        after = total_psi - before - len(part.psi)
        for d in part.colors:
            values = [0] * before + list(d.phi.values) + [0] * after
            colors.append(
                Color(
                    f"p{k + 1}.{d.id}",
                    frozenset(relabel(l, off) for l in d.moved_by),
                    Functional(values),
                )
            )
    return SphericalSystem(RootSystem(components), psi, colors)


def random_system(rng: random.Random, max_rank: int = 6) -> SphericalSystem:
    """A valid random system with at most max_rank simple roots."""
    parts: List[SphericalSystem] = []
    total = 0
    for _ in range(rng.randint(1, 3)):
        name, builder = rng.choice(PRIMITIVES)
        part = builder()
        if total + part.rs.rank > max_rank:
            continue
        parts.append(part)
        total += part.rs.rank
    if not parts:
        parts = [catalog_entry("p1").system]
    system = direct_sum(parts)
    report = validate_system(system)
    assert report.ok, [str(v) for v in report.violations]
    return system


def random_systems(seed: int, count: int, max_rank: int = 6) -> List[SphericalSystem]:
    rng = random.Random(seed)
    return [random_system(rng, max_rank) for _ in range(count)]


def wide_system(rng: random.Random, rank: int) -> SphericalSystem:
    """A valid direct sum of primitives with exactly `rank` simple roots."""
    parts: List[SphericalSystem] = []
    total = 0
    while total < rank:
        name, builder = rng.choice(PRIMITIVES)
        part = builder()
        if total + part.rs.rank <= rank:
            parts.append(part)
            total += part.rs.rank
    system = direct_sum(parts)
    report = validate_system(system)
    assert report.ok, [str(v) for v in report.violations]
    return system


def wide_systems(seed: int, count: int) -> List[SphericalSystem]:
    """Valid direct sums of rank 24-48."""
    rng = random.Random(seed)
    return [wide_system(rng, rng.randint(24, 48)) for _ in range(count)]
