"""Orbit poset of a rank-r system: the Boolean lattice of spherical-root
subsets, with covering edges and a deterministic DOT emitter.

Nodes are named s1..sr after the spherical roots.  The poset has 2^r
nodes, so r may not exceed MAX_ORBIT_RANK.

The DOT text depends only on r.  A node's label lists its names in text
order, as in "{s1,s10,s2}".  Nodes are ordered by size, then by label
text, so "{s10}" comes before "{s2}" (and before "{s1}", since '0' < '}').
Edges are ordered by source node, then by target label text.
"""
from __future__ import annotations

import itertools
from typing import Tuple

from .rootlat import Record, _set
from .sphsys import SphericalSystem

# Largest rank whose poset is built: 2^16 nodes and 16 * 2^15 edges.
MAX_ORBIT_RANK = 16


class OrbitPoset(Record):
    __slots__ = ("rank", "nodes", "edges")

    def __init__(
        self,
        rank: int,
        nodes: Tuple[frozenset, ...],
        edges: Tuple[Tuple[frozenset, frozenset], ...],
    ):
        _set(self, "rank", rank)
        _set(self, "nodes", nodes)
        _set(self, "edges", edges)

    def node_label(self, node: frozenset) -> str:
        return "{" + ",".join(sorted(f"s{i + 1}" for i in node)) + "}"

    def boundary_rank(self, node: frozenset) -> int:
        return self.rank - len(node)


def _check_rank(rank: int) -> None:
    if type(rank) is not int:
        raise ValueError(f"orbit poset rank {rank!r} is not an int")
    if rank < 0:
        raise ValueError(f"orbit poset rank {rank} is negative")
    if rank > MAX_ORBIT_RANK:
        raise ValueError(f"orbit poset rank {rank} exceeds the limit {MAX_ORBIT_RANK}")


def poset_of_rank(rank: int) -> OrbitPoset:
    """Nodes by size, then in `itertools.combinations` order; edges by
    source node, then by the index of the root added.  Each node is built
    once, and every edge reuses the node objects.  Raises ValueError for a
    rank that is not an int (a bool included), is negative or is above
    MAX_ORBIT_RANK, before anything is built."""
    _check_rank(rank)
    # by_mask[m] is the node of the roots whose bits are set in m.
    by_mask = [frozenset()]
    for i in range(rank):
        single = frozenset((i,))
        by_mask += [node | single for node in by_mask]
    bits = [1 << i for i in range(rank)]
    masks = [
        sum(combo)
        for size in range(rank + 1)
        for combo in itertools.combinations(bits, size)
    ]
    edges = [
        (by_mask[mask], by_mask[mask | bit])
        for mask in masks
        for bit in bits
        if not mask & bit
    ]
    return OrbitPoset(rank, tuple([by_mask[mask] for mask in masks]), tuple(edges))


def orbit_poset(system: SphericalSystem) -> OrbitPoset:
    """Poset of boundary strata: one node per subset of the spherical roots."""
    return poset_of_rank(len(system.psi))


def emit_graph(poset: OrbitPoset) -> str:
    """DOT text of the Boolean lattice of rank `poset.rank`.

    Nodes are ordered by size, then by label text ("{s10}" before "{s2}");
    edges by source node, then by target label text.  Only the rank is
    read, not `nodes` or `edges`, so the text depends on the rank alone.
    Raises ValueError for a rank that `poset_of_rank` refuses, before
    anything is built."""
    rank = poset.rank
    _check_rank(rank)
    # Bit j of a mask stands for the j-th name in text order, so each label
    # is its mask's label without the top bit plus one name.  Every label
    # starts with a comma, dropped when it is quoted.
    labels = [""]
    for name in sorted(map("s{}".format, range(1, rank + 1))):
        labels += [f"{label},{name}" for label in labels]
    quoted = [f'"{{{label[1:]}}}"' for label in labels]
    levels = [[] for _ in range(rank + 1)]
    for mask in range(len(quoted)):
        levels[mask.bit_count()].append(mask)
    bits = [1 << j for j in range(rank)]
    # Visiting the targets in node order hands each source its edge lines
    # already sorted by target label text.
    lines = ["digraph orbits {"]
    covers = [[] for _ in quoted]
    for size, level in enumerate(levels):
        level.sort(key=quoted.__getitem__)
        for target in level:
            label = quoted[target]
            lines.append(f"  {label} [boundary_rank={rank - size}];")
            for bit in bits:
                if target & bit:
                    covers[target ^ bit].append(f"  {quoted[target ^ bit]} -> {label};")
    for level in levels:
        for mask in level:
            lines += covers[mask]
    lines.append("}")
    return "\n".join(lines) + "\n"
