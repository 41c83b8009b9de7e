"""Orbit poset of a rank-r system: the Boolean lattice of spherical-root
subsets, with covering edges and a deterministic DOT emitter.

Nodes are named s1..sr after the spherical roots.  Everything about the
lattice is a function of r, so an `OrbitPoset` stores only its rank; its
nodes and edges are built each time they are read.  The lattice has 2^r
nodes, so r may not exceed MAX_ORBIT_RANK.

The DOT text, the only place a node is labelled and given its boundary
rank, depends only on r, so it is built once per rank in a process and
kept: at most MAX_ORBIT_RANK + 1 texts, 71.1 MB if every rank is emitted
(rank 16 alone is 39.6 MB), under 15 KB for ranks 0 to 6.  A label lists
its names in text order, as in "{s1,s10,s2}".  Nodes are ordered by size,
then by label text, so "{s10}" comes before "{s2}" (and before "{s1}",
since '0' < '}').  Edges are ordered by source node, then by target label
text.
"""
from __future__ import annotations

import itertools
from functools import cache
from typing import Tuple

from .rootlat import Record, _set
from .sphsys import SphericalSystem

# Largest rank an OrbitPoset accepts: 2^16 nodes and 16 * 2^15 edges when
# the lattice is read or emitted.
MAX_ORBIT_RANK = 16


class OrbitPoset(Record):
    """The Boolean lattice of rank `rank`.  Raises ValueError for a rank
    that is not an int (a bool included), is negative or is above
    MAX_ORBIT_RANK."""

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        if type(rank) is not int:
            raise ValueError(f"orbit poset rank {rank!r} is not an int")
        if rank < 0:
            raise ValueError(f"orbit poset rank {rank} is negative")
        if rank > MAX_ORBIT_RANK:
            raise ValueError(f"orbit poset rank {rank} exceeds the limit {MAX_ORBIT_RANK}")
        _set(self, "rank", rank)

    @property
    def nodes(self) -> Tuple[frozenset, ...]:
        """Every subset of range(rank), by size, then in
        `itertools.combinations` order."""
        indices = range(self.rank)
        return tuple(
            frozenset(combo)
            for size in range(self.rank + 1)
            for combo in itertools.combinations(indices, size)
        )

    @property
    def edges(self) -> Tuple[Tuple[frozenset, frozenset], ...]:
        """Every cover (node, node | {i}), by source node in `nodes` order,
        then by i."""
        return tuple(
            (node, node | {i}) for node in self.nodes for i in range(self.rank) if i not in node
        )


def orbit_poset(system: SphericalSystem) -> OrbitPoset:
    """Poset of boundary strata: one node per subset of the spherical roots."""
    return OrbitPoset(len(system.psi))


def emit_graph(poset: OrbitPoset) -> str:
    """DOT text of the Boolean lattice of rank `poset.rank`.

    Nodes are ordered by size, then by label text ("{s10}" before "{s2}");
    edges by source node, then by target label text.  Only the rank is
    read; `OrbitPoset` has already refused a rank above MAX_ORBIT_RANK.
    The text of each rank is built on its first emission in a process and
    returned again after that."""
    return _dot(poset.rank)


@cache
def _dot(rank: int) -> str:
    """DOT text of the Boolean lattice of rank `rank`, from 0 to MAX_ORBIT_RANK."""
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
    # Visiting the targets in node order hands each source its targets
    # already sorted by label text.
    lines = ["digraph orbits {"]
    covers = [[] for _ in quoted]
    for size, level in enumerate(levels):
        level.sort(key=quoted.__getitem__)
        tail = f" [boundary_rank={rank - size}];"
        for target in level:
            label = quoted[target]
            lines.append(f"  {label}{tail}")
            for bit in bits:
                if target & bit:
                    covers[target ^ bit].append(label)
    # Each source's edges are joined in one piece; the top node covers nothing.
    for level in levels[:-1]:
        for source in level:
            head = f"  {quoted[source]} -> "
            lines.append(head + (";\n" + head).join(covers[source]) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
