"""Spherical systems and their axiom validation.

A spherical system is a root system together with an ordered list of
spherical roots (nonnegative lattice vectors forming a base of a root
system in their span) and a list of colors, each carrying the set of
simple roots moving it and a functional on the spherical roots with values
in (1/2)Z.  `Functional` enforces that rule on construction and stores the
values doubled, so the checks compare ints (2 stands for the value 1).
Validation checks the base property and the three color axioms; every
violation is collected with a witness, nothing is thrown.

Each system indexes its colors by the simple roots moving them once, on
construction.  `validate_system` computes the restricted coroot of every
simple root once and hands that table to the checks; the pairwise P3 check
compares color ids.  Localization builds systems that are never
validated, so only validation pays for the coroot table.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .rootlat import (
    Functional,
    LatticeVector,
    Record,
    RootSystem,
    _set,
    cartan_integer,
    half_text,
)

TYPE_A, TYPE_B, TYPE_C, TYPE_D = "a", "b", "c", "d"


class Color(Record):
    """A B-stable divisor surrogate: its id, the simple roots moving it,
    and its functional on the spherical roots."""

    __slots__ = ("id", "moved_by", "phi")

    def __init__(self, id: str, moved_by: Iterable[str], phi: Functional):
        moved_by = frozenset(moved_by)
        _set(self, "id", id)
        _set(self, "moved_by", moved_by)
        _set(self, "phi", phi)


class Violation(Record):
    __slots__ = ("axiom", "message")

    def __init__(self, axiom: str, message: str):
        _set(self, "axiom", axiom)  # BASE, P1, P2 or P3
        _set(self, "message", message)

    def __str__(self) -> str:
        return f"{self.axiom}: {self.message}"


class ValidationReport(Record):
    __slots__ = ("violations",)

    def __init__(self, violations: Tuple[Violation, ...]):
        _set(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def axiom_ids(self) -> frozenset:
        return frozenset(v.axiom for v in self.violations)


class SphericalSystem:
    """Root system + spherical roots + colors, immutable."""

    def __init__(
        self,
        rs: RootSystem,
        psi: Sequence[LatticeVector],
        colors: Sequence[Color],
    ):
        self.rs = rs
        self.psi: Tuple[LatticeVector, ...] = tuple(psi)
        self.colors: Tuple[Color, ...] = tuple(colors)
        self._psi_index = {sigma: i for i, sigma in enumerate(self.psi)}
        moved: Dict[str, List[Color]] = {}
        for d in self.colors:
            for lab in d.moved_by:
                moved.setdefault(lab, []).append(d)
        self._moved = {lab: tuple(ds) for lab, ds in moved.items()}
        self._type_map: Optional[Dict[str, str]] = None

    def psi_index(self, sigma: LatticeVector) -> Optional[int]:
        return self._psi_index.get(sigma)

    def colors_moved_by(self, alpha: str) -> Tuple[Color, ...]:
        """The colors moved by alpha, in the order of `colors`."""
        return self._moved.get(alpha, ())

    @property
    def type_map(self) -> Dict[str, str]:
        if self._type_map is None:
            self._type_map = assign_types(self)
        return self._type_map

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SphericalSystem)
            and self.rs == other.rs
            and self.psi == other.psi
            and self.colors == other.colors
        )

    def __hash__(self) -> int:
        return hash((self.rs, self.psi, self.colors))

    def __repr__(self) -> str:
        return (
            f"SphericalSystem({self.rs!r}, psi=[{', '.join(map(str, self.psi))}], "
            f"colors={[c.id for c in self.colors]})"
        )


def assign_types(system: SphericalSystem) -> Dict[str, str]:
    """Classify each simple root as type a, b, c or d.

    Membership in the spherical roots wins over color counts: a root equal
    to (half of) a spherical root is typed b (c) even when its colors are
    missing; validation flags the cardinality separately.
    """
    psi_set = set(system.psi)
    out: Dict[str, str] = {}
    for lab in system.rs.simple_roots:
        alpha = system.rs.simple_root(lab)
        if alpha in psi_set:
            out[lab] = TYPE_B
        elif 2 * alpha in psi_set:
            out[lab] = TYPE_C
        elif system.colors_moved_by(lab):
            out[lab] = TYPE_D
        else:
            out[lab] = TYPE_A
    return out


def spherical_lattice_rank(system: SphericalSystem) -> int:
    """Rank of the lattice generated by the spherical roots.

    Fraction-free (Bareiss) elimination over their integer coefficient
    vectors, so dependent spherical roots are counted once.
    """
    labels = system.rs.simple_roots
    rows = [[sigma.coeff(lab) for lab in labels] for sigma in system.psi]
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


def coroot_table(system: SphericalSystem) -> Dict[str, Tuple[int, ...]]:
    """The values of every simple root's restricted coroot on the spherical
    roots, as integers, keyed in simple-root order."""
    return {
        lab: tuple(cartan_integer(system.rs, lab, sigma) for sigma in system.psi)
        for lab in system.rs.simple_roots
    }


def _check_base(system: SphericalSystem, out: List[Violation]) -> None:
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
    # The form is integral and positive definite on the root lattice, so the
    # Cartan number 2(sigma, tau)/(sigma, sigma) is checked in integers.
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


def _check_p1(
    system: SphericalSystem, coroots: Dict[str, Tuple[int, ...]], out: List[Violation]
) -> None:
    for lab in system.rs.simple_roots:
        kind = system.type_map[lab]
        moved = system.colors_moved_by(lab)
        # Doubled, the half coroot's values are the coroot's integers.
        half = Functional._of_twice(coroots[lab])
        coroot = half + half
        # A root that moves a color is never typed a (see assign_types).
        if kind == TYPE_B:
            if len(moved) != 2:
                out.append(
                    Violation("P1", f"type-b root {lab} has {len(moved)} colors, expected 2")
                )
                continue
            dplus, dminus = moved
            if dplus.phi + dminus.phi != coroot:
                out.append(
                    Violation(
                        "P1",
                        f"type-b root {lab}: phi({dplus.id}) + phi({dminus.id}) = "
                        f"{dplus.phi + dminus.phi} differs from coroot {coroot}",
                    )
                )
            idx = system.psi_index(system.rs.simple_root(lab))
            for d in moved:
                value = d.phi.twice[idx]
                if value != 2:
                    out.append(
                        Violation(
                            "P1",
                            f"type-b root {lab}: <phi({d.id}), {lab}> = {half_text(value)} != 1",
                        )
                    )
        elif kind == TYPE_C:
            if len(moved) != 1:
                out.append(
                    Violation("P1", f"type-c root {lab} has {len(moved)} colors, expected 1")
                )
            for d in moved:
                if d.phi != half:
                    out.append(
                        Violation(
                            "P1",
                            f"type-c root {lab}: phi({d.id}) = {d.phi} differs from "
                            f"half coroot {half}",
                        )
                    )
        elif kind == TYPE_D:
            if len(moved) != 1:
                out.append(
                    Violation("P1", f"type-d root {lab} has {len(moved)} colors, expected 1")
                )
            for d in moved:
                if d.phi != coroot:
                    out.append(
                        Violation(
                            "P1",
                            f"type-d root {lab}: phi({d.id}) = {d.phi} differs from "
                            f"coroot {coroot}",
                        )
                    )


def _check_p2(system: SphericalSystem, out: List[Violation]) -> None:
    psi_labels = [system.rs.as_simple_label(sigma) for sigma in system.psi]
    for lab in system.rs.simple_roots:
        beta = system.rs.simple_root(lab)
        if system.psi_index(beta) is None:
            continue
        for d in system.colors_moved_by(lab):
            for j, sigma in enumerate(system.psi):
                value = d.phi.twice[j]  # doubled: 2 stands for 1
                sigma_label = psi_labels[j]
                simple_and_moved = sigma_label is not None and sigma_label in d.moved_by
                if value > 2:
                    out.append(
                        Violation(
                            "P2",
                            f"<phi({d.id}), {sigma}> = {half_text(value)} > 1 (color of {lab})",
                        )
                    )
                elif value == 2 and not simple_and_moved:
                    out.append(
                        Violation(
                            "P2",
                            f"<phi({d.id}), {sigma}> = 1 but {sigma} is not a simple "
                            f"root moving {d.id}",
                        )
                    )
                elif value != 2 and simple_and_moved:
                    out.append(
                        Violation(
                            "P2",
                            f"<phi({d.id}), {sigma}> = {half_text(value)} != 1 although "
                            f"{sigma} is a simple root moving {d.id}",
                        )
                    )


def _sum_in_psi(system: SphericalSystem, alpha: LatticeVector, beta: LatticeVector) -> bool:
    total = alpha + beta
    if system.psi_index(total) is not None:
        return True
    half = total.halved()
    return half is not None and system.psi_index(half) is not None


def _check_p3(
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


def validate_system(system: SphericalSystem) -> ValidationReport:
    """Check the base property and the three color axioms, exhaustively."""
    out: List[Violation] = []
    _check_base(system, out)
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
        return ValidationReport(tuple(out))
    coroots = coroot_table(system)
    _check_p1(system, coroots, out)
    _check_p2(system, out)
    _check_p3(system, coroots, out)
    return ValidationReport(tuple(out))
