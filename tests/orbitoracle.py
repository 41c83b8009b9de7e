"""Brute-force orbit poset and DOT emitter used as an oracle.

Builds every covering edge as a fresh `node | {i}` and sorts the whole
edge list by label text, reading the poset's own `nodes` and `edges`.
This shares no code path with the closed-form emitter in the package.
"""
from __future__ import annotations

import itertools
from typing import Dict

from wondersys import OrbitPoset


def oracle_poset(rank: int) -> OrbitPoset:
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


def oracle_dot(poset: OrbitPoset) -> str:
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
