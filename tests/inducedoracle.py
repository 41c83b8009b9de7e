"""Induced root system of a localization, typed over the whole subset.

`induced_root_system` runs `detect_subdiagram_type` on every label of the
subset and then swaps in each ambient component whose labels it covers.
The package reuses the covered components first and types only the kept
part of each cut component; both must give the same components in the
same order.  `reference_localize` is `localize` with this root system.
"""
from __future__ import annotations

from typing import Iterable, List

from wondersys import SphericalSystem, localize
from wondersys.rootlat import Component, RootSystem, detect_subdiagram_type


def induced_root_system(rs: RootSystem, subset: frozenset) -> RootSystem:
    comps: List[Component] = []
    full = {frozenset(c.labels): c for c in rs.components}
    for comp in detect_subdiagram_type(rs, subset):
        original = full.get(frozenset(comp.labels))
        # Reuse the ambient component verbatim when the subset covers it,
        # so localizing at the full set is the identity.
        comps.append(original if original is not None else comp)
    return RootSystem(comps)


def reference_localize(system: SphericalSystem, subset: Iterable[str]) -> SphericalSystem:
    sub = frozenset(subset)
    loc = localize(system, sub)
    return SphericalSystem(induced_root_system(system.rs, sub), loc.psi, loc.colors)
