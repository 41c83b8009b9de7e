"""Orbit poset of a rank-r system: the Boolean lattice of spherical-root
subsets, with covering edges and a deterministic DOT emitter.

Nodes are named s1..sr after the spherical roots.  The poset has 2^r
nodes, so r may not exceed MAX_ORBIT_RANK.
"""
from __future__ import annotations

import itertools
from typing import Dict, Tuple

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


def poset_of_rank(rank: int) -> OrbitPoset:
    """Raises ValueError for a negative rank or one above MAX_ORBIT_RANK,
    before anything is built."""
    if rank < 0:
        raise ValueError(f"orbit poset rank {rank} is negative")
    if rank > MAX_ORBIT_RANK:
        raise ValueError(f"orbit poset rank {rank} exceeds the limit {MAX_ORBIT_RANK}")
    nodes = []
    for size in range(rank + 1):
        for combo in itertools.combinations(range(rank), size):
            nodes.append(frozenset(combo))
    edges = [
        (node, node | {i})
        for node in nodes
        for i in range(rank)
        if i not in node
    ]
    return OrbitPoset(rank, tuple(nodes), tuple(edges))


def orbit_poset(system: SphericalSystem) -> OrbitPoset:
    """Poset of boundary strata: one node per subset of the spherical roots."""
    return poset_of_rank(len(system.psi))


def emit_graph(poset: OrbitPoset) -> str:
    """Deterministic DOT rendering; equal posets give byte-identical text."""
    labels: Dict[frozenset, str] = {n: poset.node_label(n) for n in poset.nodes}
    ordered = sorted(poset.nodes, key=lambda n: (len(n), labels[n]))
    lines = ["digraph orbits {"]
    for node in ordered:
        lines.append(
            f'  "{labels[node]}" [boundary_rank={poset.boundary_rank(node)}];'
        )
    for _, a, b in sorted((len(a), labels[a], labels[b]) for a, b in poset.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
