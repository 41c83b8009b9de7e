"""Localization of a spherical system at a subset of the simple roots.

The localized system lives on the induced sub-root-system, keeps the
spherical roots supported inside the subset, and restricts each surviving
color's functional to the kept spherical roots.  When every spherical root
is kept, a color moved only by labels of the subset is unchanged, and the
localization holds the parent's own object.  Any other surviving color
is a new `Color` with the parent's id: it shares the parent's `moved_by`
when every label moving it survives, and its `phi` when every spherical
root is kept; otherwise `Functional.restrict` restricts it.  Color ids
are preserved, so the color correspondence with the parent system is the
identity on ids and localization composes strictly.

The induced root system is `RootSystem.induced`: derived from copies of
the ambient tables, it reuses each component that the subset covers as it
is, and only the labels the subset keeps of a cut component are typed
again.  It lists the components by smallest label, as `RootSystem` does,
so localizing at the full set is the identity.
"""
from __future__ import annotations

from typing import Iterable

from .sphsys import Color, SphericalSystem, TYPE_A


def localize(system: SphericalSystem, subset: Iterable[str]) -> SphericalSystem:
    """Localize at a subset of simple roots, which `RootSystem.induced`
    checks: a label outside the system, or a `str`, which would be read as
    its characters, raises RootSystemError.  `subset` is read once, so any
    iterable will do.  At the full set it gives back the system itself,
    components in the same order, since `RootSystem` lists them by
    smallest label."""
    rs = system.rs.induced(subset)
    sub = frozenset(rs.simple_roots)
    kept = [i for i, sigma in enumerate(system.psi) if sigma._coeffs.keys() <= sub]
    psi = [system.psi[i] for i in kept]
    every_root = len(kept) == len(system.psi)
    colors = []
    for d in system.colors:
        moved = d.moved_by & sub
        if not moved:
            continue
        whole = len(moved) == len(d.moved_by)
        if every_root and whole:
            colors.append(d)
        else:
            phi = d.phi if every_root else d.phi.restrict(kept)
            colors.append(Color(d.id, d.moved_by if whole else moved, phi))
    return SphericalSystem(rs, psi, colors)


def type_a_roots(system: SphericalSystem) -> frozenset:
    """Simple roots moved by no color and not related to a spherical root."""
    return frozenset(
        lab for lab in system.rs.simple_roots if system.type_map[lab] == TYPE_A
    )
