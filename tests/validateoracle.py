"""All-pairs BASE, P3 and Sigma2 checks used as an oracle for `validate_system`.

Every pairing and form here comes from the standard Cartan blocks of the
components, read once per system by `rootoracle.block_cartan` and
`block_lengths`, never from the label table a `RootSystem` keeps or the
component table `_COMPONENTS` that `validate_system` reads it through.  The
restricted coroots are paired through `block_pairing` for every simple
root and spherical root, the BASE Cartan numbers go through `gram_form`
for every pair of spherical roots and print through `Fraction`, and P3
visits every pair of simple roots, reading their orthogonality off the
blocks and asking `_sum_in_psi` whether their sum is
in the spherical roots or twice one (Luna's axiom, read literally), against
one set of the spherical roots built per call; Sigma2 walks every pair
again, with the same coroots and orthogonality.  A label of a spherical root
outside the root system is a BASE violation, and then no Cartan number,
P1, P2, P3 or Sigma2 check is made.  `oracle_types` types each
simple root by looking its vector and twice it up among the spherical roots.
`oracle_check_p2` finds, for each color in turn, the first type-b root of
`oracle_types` in its `moved_by`, and compares its `Fraction` values with
the simple roots it is moved by; it reads neither `colors_moved_by` nor
the package's index of simple spherical roots.  P1 is the package's own: it
walks no pairs.  `spherical_lattice_rank` counts the independent spherical
roots by fraction-free elimination.
"""
from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from wondersys import (
    Functional,
    LatticeVector,
    RootSystem,
    SphericalSystem,
    Violation,
)
from wondersys.sphsys import TYPE_A, TYPE_B, TYPE_C, TYPE_D, _check_p1

from rootoracle import block_cartan, block_lengths, block_pairing, gram_form


def oracle_types(system: SphericalSystem) -> Dict[str, str]:
    """The type of each simple root, by vector membership in the spherical roots."""
    psi_set = set(system.psi)
    out: Dict[str, str] = {}
    for lab in system.rs.simple_roots:
        alpha = LatticeVector({lab: 1})
        if alpha in psi_set:
            out[lab] = TYPE_B
        elif 2 * alpha in psi_set:
            out[lab] = TYPE_C
        elif system.colors_moved_by(lab):
            out[lab] = TYPE_D
        else:
            out[lab] = TYPE_A
    return out


def halved(v: LatticeVector) -> Optional[LatticeVector]:
    """Return v/2 if it stays integral, else None."""
    if any(c % 2 for _, c in v.items()):
        return None
    return LatticeVector({lab: c // 2 for lab, c in v.items()})


def _sum_in_psi(
    psi_set: AbstractSet[LatticeVector], alpha: LatticeVector, beta: LatticeVector
) -> bool:
    total = alpha + beta
    if total in psi_set:
        return True
    half = halved(total)
    return half is not None and half in psi_set


def spherical_lattice_rank(system: SphericalSystem) -> int:
    """Rank of the lattice generated by the spherical roots.

    Fraction-free (Bareiss) elimination over their integer coefficient
    vectors, so dependent spherical roots are counted once.
    """
    labels = system.rs.simple_roots
    coeffs = [dict(sigma.items()) for sigma in system.psi]
    rows = [[c.get(lab, 0) for lab in labels] for c in coeffs]
    rank, previous = 0, 1
    for col in range(len(labels)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            q = row[col]
            # Bareiss: every entry is a minor of the input, so the division
            # by the previous pivot is exact.
            rows[r] = [(p * x - q * y) // previous for x, y in zip(row, top)]
        previous = p
        rank += 1
    return rank


def restricted_coroot(rs: RootSystem, alpha: str, psi: Sequence[LatticeVector]) -> Functional:
    """The coroot of alpha as a functional on the span of psi."""
    rs.index(alpha)  # raises on an unknown label
    cartan = block_cartan(rs)
    return Functional(block_pairing(cartan, alpha, sigma) for sigma in psi)


def oracle_coroot_table(system: SphericalSystem, cartan: dict) -> Dict[str, Tuple[int, ...]]:
    return {
        lab: tuple(block_pairing(cartan, lab, sigma) for sigma in system.psi)
        for lab in system.rs.simple_roots
    }


def oracle_check_base(
    system: SphericalSystem, cartan: dict, lengths: dict, out: List[Violation]
) -> bool:
    """Append the BASE violations; return False when a spherical root has a
    label outside the root system, whose Cartan numbers are then not checked."""
    known = set(system.rs.simple_roots)
    unknown = False
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
        for lab in sorted(sigma.support - known, key=repr):
            unknown = True
            out.append(
                Violation("BASE", f"spherical root {sigma} has label {lab!r}, not a simple root")
            )
    # More roots than the rank cannot pass the pairwise test (Humphreys 10.1).
    if len(system.psi) > system.rs.rank:
        n, rank = len(system.psi), system.rs.rank
        out.append(Violation("BASE", f"{n} spherical roots exceed the rank {rank}"))
        return not unknown
    if unknown:
        return False
    for i, sigma in enumerate(system.psi):
        if sigma.is_zero():
            continue
        norm = gram_form(cartan, lengths, sigma, sigma)
        for j, tau in enumerate(system.psi):
            if i == j or tau == sigma:
                continue
            twice = 2 * gram_form(cartan, lengths, sigma, tau)
            if twice % norm or twice > 0:
                out.append(
                    Violation(
                        "BASE",
                        f"Cartan number of ({sigma}, {tau}) is {Fraction(twice, norm)}, "
                        "not a nonpositive integer",
                    )
                )
    return True


def oracle_check_p2(system: SphericalSystem, out: List[Violation]) -> None:
    """Each color moved by a type-b root, checked once, at the first such root
    in simple-root order: no value exceeds 1, and the value is 1 exactly on
    the spherical roots that are simple roots moving the color."""
    rs = system.rs
    labels = rs.simple_roots
    types = oracle_types(system)
    todo = []
    for k, d in enumerate(system.colors):
        firsts = [i for i, lab in enumerate(labels) if types[lab] == TYPE_B and lab in d.moved_by]
        if firsts:
            todo.append((firsts[0], k))
    for i, k in sorted(todo):
        d = system.colors[k]
        moving = {LatticeVector({lab: 1}) for lab in d.moved_by if lab in rs}
        for sigma, value in zip(system.psi, d.phi.values):
            if value > 1:
                out.append(
                    Violation("P2", f"<phi({d.id}), {sigma}> = {value} > 1 (color of {labels[i]})")
                )
            elif value == 1 and sigma not in moving:
                out.append(
                    Violation(
                        "P2",
                        f"<phi({d.id}), {sigma}> = 1 but {sigma} is not a simple "
                        f"root moving {d.id}",
                    )
                )
            elif value != 1 and sigma in moving:
                out.append(
                    Violation(
                        "P2",
                        f"<phi({d.id}), {sigma}> = {value} != 1 although "
                        f"{sigma} is a simple root moving {d.id}",
                    )
                )


def oracle_check_p3(
    system: SphericalSystem, cartan: dict, coroots: Dict[str, Tuple[int, ...]],
    out: List[Violation],
) -> None:
    rs = system.rs
    labels = rs.simple_roots
    types = system.type_map
    ids = {
        lab: frozenset(d.id for d in system.colors_moved_by(lab)) for lab in labels
    }
    psi_set = set(system.psi)
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
                    if (la, lb) in cartan:
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
                    if not _sum_in_psi(psi_set, LatticeVector({la: 1}), LatticeVector({lb: 1})):
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
                and (la, lb) not in cartan
                and coroots[la] == coroots[lb]
                and _sum_in_psi(psi_set, LatticeVector({la: 1}), LatticeVector({lb: 1}))
            ):
                out.append(
                    Violation(
                        "P3",
                        f"type-d roots {la}, {lb} satisfy the sharing conditions "
                        "but have different color sets",
                    )
                )


def oracle_check_sigma2(
    system: SphericalSystem, cartan: dict, coroots: Dict[str, Tuple[int, ...]],
    out: List[Violation],
) -> None:
    """Luna's Sigma2 over every pair of simple roots: orthogonal ones whose
    sum is a spherical root have equal restricted coroots."""
    labels = system.rs.simple_roots
    psi_set = set(system.psi)
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            if (la, lb) in cartan or LatticeVector({la: 1, lb: 1}) not in psi_set:
                continue
            for sigma, x, y in zip(system.psi, coroots[la], coroots[lb]):
                if x != y:
                    out.append(
                        Violation(
                            "SIGMA2",
                            f"orthogonal roots {la}, {lb} sum to a spherical root, but "
                            f"their restricted coroots differ on {sigma}",
                        )
                    )
                    break


def oracle_violations(system: SphericalSystem) -> List[Violation]:
    """The violations `validate_system` must report, in its order."""
    cartan = block_cartan(system.rs)
    out: List[Violation] = []
    labels_known = oracle_check_base(system, cartan, block_lengths(system.rs), out)
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
        unknown = [lab for lab in d.moved_by if lab not in system.rs]
        for lab in sorted(unknown, key=repr):
            out.append(Violation("P1", f"color {d.id} is moved by {lab!r}, not a simple root"))
    if not labels_known or any(len(d.phi) != len(system.psi) for d in system.colors):
        return out
    coroots = oracle_coroot_table(system, cartan)
    _check_p1(system, coroots, out)
    oracle_check_p2(system, out)
    oracle_check_p3(system, cartan, coroots, out)
    oracle_check_sigma2(system, cartan, coroots, out)
    return out
