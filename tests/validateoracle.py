"""All-pairs BASE and P3 checks used as an oracle for `validate_system`.

The restricted coroots are paired through `cartan_integer` for every simple
root and spherical root, the BASE Cartan numbers go through `RootSystem.form`
for every pair of spherical roots and print through `Fraction`, and P3
visits every pair of simple roots.  P1, P2 and `_sum_in_psi` are the
package's own: they walk no pairs.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from wondersys import (
    Functional,
    LatticeVector,
    RootSystem,
    SphericalSystem,
    Violation,
    cartan_integer,
)
from wondersys.sphsys import TYPE_B, TYPE_D, _check_p1, _check_p2, _sum_in_psi


def restricted_coroot(rs: RootSystem, alpha: str, psi: Sequence[LatticeVector]) -> Functional:
    """The coroot of alpha as a functional on the span of psi."""
    return Functional(cartan_integer(rs, alpha, sigma) for sigma in psi)


def oracle_coroot_table(system: SphericalSystem) -> Dict[str, Tuple[int, ...]]:
    return {
        lab: tuple(cartan_integer(system.rs, lab, sigma) for sigma in system.psi)
        for lab in system.rs.simple_roots
    }


def oracle_check_base(system: SphericalSystem, out: List[Violation]) -> None:
    seen = set()
    for sigma in system.psi:
        if sigma in seen:
            out.append(Violation("BASE", f"duplicate spherical root {sigma}"))
        seen.add(sigma)
        if sigma.is_zero():
            out.append(Violation("BASE", "spherical root with empty support"))
            continue
        for lab, coeff in sigma.items():
            if coeff < 0:
                out.append(
                    Violation("BASE", f"negative coefficient of {lab} in {sigma}")
                )
    for i, sigma in enumerate(system.psi):
        if sigma.is_zero():
            continue
        norm = system.rs.form(sigma, sigma)
        for j, tau in enumerate(system.psi):
            if i == j or tau == sigma:
                continue
            twice = 2 * system.rs.form(sigma, tau)
            if twice % norm or twice > 0:
                out.append(
                    Violation(
                        "BASE",
                        f"Cartan number of ({sigma}, {tau}) is {Fraction(twice, norm)}, "
                        "not a nonpositive integer",
                    )
                )


def oracle_check_p3(
    system: SphericalSystem, coroots: Dict[str, Tuple[int, ...]], out: List[Violation]
) -> None:
    rs = system.rs
    labels = rs.simple_roots
    types = system.type_map
    ids = {
        lab: frozenset(d.id for d in system.colors_moved_by(lab)) for lab in labels
    }
    for i, la in enumerate(labels):
        da, ta = ids[la], types[la]
        for lb in labels[i + 1 :]:
            db, tb = ids[lb], types[lb]
            shared = da & db
            both_d = ta == TYPE_D and tb == TYPE_D
            if shared:
                if ta == TYPE_B and tb == TYPE_B:
                    if len(shared) != 1:
                        out.append(
                            Violation(
                                "P3",
                                f"type-b roots {la}, {lb} share {len(shared)} colors, "
                                "expected exactly 1",
                            )
                        )
                elif both_d:
                    if rs.cartan_entry(la, lb) != 0:
                        out.append(
                            Violation("P3", f"shared-color roots {la}, {lb} not orthogonal")
                        )
                    if coroots[la] != coroots[lb]:
                        out.append(
                            Violation(
                                "P3",
                                f"shared-color roots {la}, {lb} have different "
                                "restricted coroots",
                            )
                        )
                    if not _sum_in_psi(system, rs.simple_root(la), rs.simple_root(lb)):
                        out.append(
                            Violation(
                                "P3",
                                f"{la}+{lb} is neither a spherical root nor twice one",
                            )
                        )
                else:
                    out.append(
                        Violation(
                            "P3",
                            f"roots {la} (type {ta}) and {lb} (type {tb}) share a color",
                        )
                    )
            if (
                both_d
                and da != db
                and rs.cartan_entry(la, lb) == 0
                and coroots[la] == coroots[lb]
                and _sum_in_psi(system, rs.simple_root(la), rs.simple_root(lb))
            ):
                out.append(
                    Violation(
                        "P3",
                        f"type-d roots {la}, {lb} satisfy the sharing conditions "
                        "but have different color sets",
                    )
                )


def oracle_violations(system: SphericalSystem) -> List[Violation]:
    """The violations `validate_system` must report, in its order."""
    out: List[Violation] = []
    oracle_check_base(system, out)
    seen_ids = set()
    for d in system.colors:
        if d.id in seen_ids:
            out.append(Violation("P1", f"color id {d.id} is used by more than one color"))
        seen_ids.add(d.id)
        if len(d.phi) != len(system.psi):
            out.append(
                Violation(
                    "P1",
                    f"color {d.id}: functional has {len(d.phi)} values for "
                    f"{len(system.psi)} spherical roots",
                )
            )
        if not d.moved_by:
            out.append(Violation("P1", f"color {d.id} is moved by no simple root"))
    if any(len(d.phi) != len(system.psi) for d in system.colors):
        return out
    coroots = oracle_coroot_table(system)
    _check_p1(system, coroots, out)
    _check_p2(system, out)
    oracle_check_p3(system, coroots, out)
    return out
