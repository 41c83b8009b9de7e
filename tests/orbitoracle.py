"""Brute-force orbit poset and DOT emitter used as an oracle.

Builds every covering edge as a fresh `node | {i}`, labels each node
itself and sorts the whole edge list by label text.  This shares no code
path with the package's `OrbitPoset` or its closed-form emitter.
"""
from __future__ import annotations

import itertools
from typing import Dict, Tuple


def oracle_poset(rank: int) -> Tuple[tuple, tuple]:
    """The nodes and the covering edges of the Boolean lattice of rank `rank`."""
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
    return tuple(nodes), tuple(edges)


def oracle_dot(rank: int) -> str:
    nodes, edges = oracle_poset(rank)
    labels: Dict[frozenset, str] = {
        n: "{" + ",".join(sorted(f"s{i + 1}" for i in n)) + "}" for n in nodes
    }
    ordered = sorted(nodes, key=lambda n: (len(n), labels[n]))
    lines = ["digraph orbits {"]
    for node in ordered:
        lines.append(f'  "{labels[node]}" [boundary_rank={rank - len(node)}];')
    for _, a, b in sorted((len(a), labels[a], labels[b]) for a, b in edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
