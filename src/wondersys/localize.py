"""Localization of a spherical system at a subset of the simple roots.

The localized system lives on the induced sub-root-system, keeps the
spherical roots supported inside the subset, and restricts each surviving
color's functional to the kept spherical roots.  When every spherical root
is kept, a color moved only by labels of the subset is unchanged, and the
localization holds the parent's own object.  Any other surviving color
is derived from the parent's, which passed `Color`'s checks, and is built
without running them again: it keeps the parent's `moved_by` frozenset
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

from .rootlat import RootSystemError
from .sphsys import Color, SphericalSystem, TYPE_A


def localize(system: SphericalSystem, subset: Iterable[str]) -> SphericalSystem:
    """Localize at a subset of simple roots; raises on labels outside the
    system, and on a `str`, which would be read as its characters.  At the
    full set it gives back the system itself, components in the same
    order, since `RootSystem` lists them by smallest label."""
    if isinstance(subset, str):
        raise RootSystemError(f"subset is a str, not a set of labels: {subset!r}")
    sub = frozenset(subset)
    unknown = sub.difference(system.rs.simple_roots)
    if unknown:
        raise RootSystemError(f"label {next(iter(unknown))!r} is not a simple root of the system")
    rs = system.rs.induced(sub)
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
            colors.append(Color._of(d.id, d.moved_by if whole else moved, phi))
    return SphericalSystem(rs, psi, colors)


def type_a_roots(system: SphericalSystem) -> frozenset:
    """Simple roots moved by no color and not related to a spherical root."""
    return frozenset(
        lab for lab in system.rs.simple_roots if system.type_map[lab] == TYPE_A
    )
