"""Permutation-search Dynkin type detection, used as an oracle.

Tries every ordering of each connected component against the standard
Cartan matrix of each candidate series, in series order A, B, C, D, E, F,
G, and keeps the first match.  The first match in `itertools.permutations`
order over `_label_key`-sorted labels defines the canonical label order
that `detect_subdiagram_type` must reproduce.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from wondersys.rootlat import (
    Component,
    RootSystem,
    RootSystemError,
    _label_key,
    component_cartan,
)


def _candidate_series(size: int) -> Iterator[str]:
    yield "A"
    if size >= 2:
        yield "B"
        yield "C"
    if size >= 3:
        yield "D"
    if size in (6, 7, 8):
        yield "E"
    if size == 4:
        yield "F"
    if size == 2:
        yield "G"


def _identify_component(rs: RootSystem, members: Sequence[str]) -> Component:
    n = len(members)
    for series in _candidate_series(n):
        target, _ = component_cartan(series, n)
        for perm in itertools.permutations(members):
            if all(
                rs.cartan_entry(perm[i], perm[j]) == target[i][j]
                for i in range(n)
                for j in range(n)
            ):
                return Component(series, n, tuple(perm))
    raise RootSystemError(f"unclassifiable sub-diagram on {members}")


def oracle_subdiagram_type(rs: RootSystem, sigma: Iterable[str]) -> list:
    """Components of the sub-diagram on sigma, by permutation search."""
    remaining = set(sigma)
    groups = []
    while remaining:
        seed = min(remaining, key=_label_key)
        stack, comp = [seed], {seed}
        remaining.discard(seed)
        while stack:
            cur = stack.pop()
            for other in list(remaining):
                if rs.cartan_entry(cur, other) != 0:
                    comp.add(other)
                    remaining.discard(other)
                    stack.append(other)
        groups.append(sorted(comp, key=_label_key))
    return [_identify_component(rs, members) for members in groups]
