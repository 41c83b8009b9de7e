"""Spherical systems and their axiom validation.

A spherical system is a root system together with an ordered list of
spherical roots (nonnegative lattice vectors forming a base of a root
system in their span) and a list of colors, each carrying the set of
simple roots moving it and a functional on the spherical roots with values
in (1/2)Z.  `Functional` enforces that rule on construction and stores the
values doubled, so the checks compare ints (2 stands for the value 1).
Validation checks four axioms; every violation is collected with a
witness, nothing is thrown.

- BASE: the spherical roots are distinct, nonzero and nonnegative, at
  most the rank in number, and pairwise of nonpositive integer Cartan
  number.
- P1: color ids are unique; a functional has one value per spherical
  root; a color is moved by simple roots of the system; a type-b root has
  two colors, summing to its restricted coroot and each 1 on it; a type-c
  or type-d root has one, its half coroot or its coroot.
- P2: a color of a type-b root is at most 1 on the spherical roots, and 1
  exactly on the simple roots moving it.
- P3: two simple roots share a color only if both are type b (sharing
  one) or both are type d, orthogonal, with equal restricted coroots and
  a spherical root as their sum; two such type-d roots share their color.

Luna's axioms Sigma2 and S (Luna, Varietes spheriques de type A, Publ.
IHES 94 (2001), section 2; Bravi-Luna, arXiv:0812.2340, section 1) are
not checked yet.  Sigma2 asks orthogonal simple roots summing to a
spherical root for coroots that agree on the spherical roots: Sigma =
{a1+b2, b1+b3} on A1 x A3 breaks it and validates.  S puts every
spherical root on Luna's list: Sigma = {3*a1} on A1 validates.

Each system indexes its colors by the simple roots moving them, and its
spherical roots that are a simple root, once on construction, and types its
simple roots then from those two indexes and the simple roots whose double
is a spherical root; P1, P2 and distinguishedness read the second index.
`validate_system` first builds the coroot table, the value of every simple
root's restricted coroot on every spherical root, by walking the Cartan
matrix's nonzero entries: each coefficient v of b in a spherical root adds
v * a_ab to the row of label a for the few pairs (a, a_ab) in
`RootSystem.column(b)`.  A spherical root with a label outside the root
system is a BASE violation, and no table is built: the checks that read
it are skipped, as they are when a functional's length is wrong.
The checks read that table.  The BASE form is read off it too, since
(sigma, tau) is the sum over a in the support of sigma of
sigma_a * d_a * <alpha_a^vee, tau>; more spherical roots than the rank
break BASE by themselves, which is reported once instead of pairwise, so
the BASE check stays linear in the number of spherical roots.  P3 visits
only the pairs of simple roots that can break it: those moved by colors
with one id, and type-d roots whose sum is a spherical root.  Localization
builds systems that are never validated, so only validation pays for the
coroot table.  No other index of the spherical roots is kept: `psi_index`
scans them.
"""
from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .rootlat import (
    Functional,
    LatticeVector,
    Record,
    RootSystem,
    RootSystemError,
    _set,
    half_text,
)

TYPE_A, TYPE_B, TYPE_C, TYPE_D = "a", "b", "c", "d"


class Color(Record):
    """A B-stable divisor surrogate: its id, the simple roots moving it,
    and its functional on the spherical roots.

    The id must be a non-empty `str`, as a document's id must be; anything
    else raises ValueError, so every color can be written and read back.
    `moved_by` is a collection of labels; a `str`, which would be read as
    its characters, raises ValueError too.
    """

    __slots__ = ("id", "moved_by", "phi")

    def __init__(self, id: str, moved_by: Iterable[str], phi: Functional):
        if not isinstance(id, str) or not id:
            raise ValueError(f"color id is not a non-empty str: {id!r}")
        if isinstance(moved_by, str):
            raise ValueError(f"color {id}: moved_by is a str, not a set of labels: {moved_by!r}")
        moved_by = frozenset(moved_by)
        _set(self, "id", id)
        _set(self, "moved_by", moved_by)
        _set(self, "phi", phi)

    @classmethod
    def _of(cls, id: str, moved_by: frozenset, phi: Functional) -> "Color":
        """The color with these fields, taken as they are: for a color derived
        from one that passed the checks of `__init__`."""
        d = object.__new__(cls)
        _set(d, "id", id)
        _set(d, "moved_by", moved_by)
        _set(d, "phi", phi)
        return d


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


class SphericalSystem(Record):
    """Root system + spherical roots + colors, immutable.

    A `Record` whose value is `rs`, `psi` and `colors`: equality, hash,
    copy and pickle read those alone, and every other slot is derived from
    them on construction.  `simple_labels[j]` is `rs.as_simple_label(psi[j])`,
    `_simple` maps each simple root in psi to its index (the last, should it
    repeat) and `_moved` lists the colors each simple root moves.  No map of
    psi itself is kept: `psi_index` scans it.  `type_map` classifies each
    simple root as type a, b, c or d.  Membership in the spherical roots
    wins over color counts: a root equal to (half of) a spherical root is
    typed b (c) even when its colors are missing; validation flags the
    cardinality separately.  `type_map` is a dict, which must not be edited;
    its keys are `rs.simple_roots` in order, and it is built in bulk: every
    label typed a by `dict.fromkeys`, then retyped d, c and b, in that order,
    on the labels of the system that move a color, whose double is a
    spherical root and that are a spherical root.
    """

    __slots__ = ("rs", "psi", "colors", "_moved", "_simple", "simple_labels", "type_map")
    _value = ("rs", "psi", "colors")

    def __init__(
        self,
        rs: RootSystem,
        psi: Sequence[LatticeVector],
        colors: Sequence[Color],
    ):
        _set(self, "rs", rs)
        _set(self, "psi", tuple(psi))
        _set(self, "colors", tuple(colors))
        moved: Dict[str, List[Color]] = {}
        for d in self.colors:
            for lab in d.moved_by:
                moved.setdefault(lab, []).append(d)
        _set(self, "_moved", {lab: tuple(ds) for lab, ds in moved.items()})
        labels: List[Optional[str]] = []
        simple: Dict[str, int] = {}
        doubled = set()
        for j, sigma in enumerate(self.psi):
            lab = rs.as_simple_label(sigma)
            labels.append(lab)
            if lab is not None:
                simple[lab] = j
            elif list(sigma._coeffs.values()) == [2]:
                doubled.update(sigma._coeffs)
        _set(self, "_simple", simple)
        _set(self, "simple_labels", tuple(labels))
        # Every label starts as type a; d, then c, then b overwrite it, each
        # only on labels of the system, so b wins over c over d, and the keys
        # stay in simple-root order.
        type_map = dict.fromkeys(rs.simple_roots, TYPE_A)
        for kind, marked in ((TYPE_D, moved), (TYPE_C, doubled), (TYPE_B, simple)):
            type_map.update(dict.fromkeys(type_map.keys() & marked, kind))
        _set(self, "type_map", type_map)

    def psi_index(self, sigma: LatticeVector) -> Optional[int]:
        """The index of the last spherical root equal to sigma, or None."""
        for j in reversed(range(len(self.psi))):
            if self.psi[j] == sigma:
                return j
        return None

    def colors_moved_by(self, alpha: str) -> Tuple[Color, ...]:
        """The colors moved by alpha, in the order of `colors`."""
        return self._moved.get(alpha, ())

    def __repr__(self) -> str:
        return (
            f"SphericalSystem({self.rs!r}, psi=[{', '.join(map(str, self.psi))}], "
            f"colors={[c.id for c in self.colors]})"
        )


def coroot_table(system: SphericalSystem) -> Dict[str, Tuple[int, ...]]:
    """The values of every simple root's restricted coroot on the spherical
    roots, as integers, keyed by label in simple-root order.

    Built along the nonzero Cartan entries of each spherical root's support,
    each entry (a, a_ab) of a column adding to the row of label a; a label
    outside the root system raises RootSystemError.
    """
    rs = system.rs
    rows = {lab: [0] * len(system.psi) for lab in rs.simple_roots}
    for j, sigma in enumerate(system.psi):
        for b, v in sigma._coeffs.items():
            for a, x in rs.column(b):
                rows[a][j] += v * x
    return {lab: tuple(row) for lab, row in rows.items()}


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms, den > 0, as `Fraction` prints it: "p" or "p/q"."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _check_base(
    system: SphericalSystem, coroots: Optional[Dict[str, Tuple[int, ...]]],
    out: List[Violation],
) -> None:
    """BASE; `coroots` is None when a spherical root has a label outside the
    root system, and then the Cartan numbers are not checked."""
    rs = system.rs
    seen = set()
    for sigma in system.psi:
        if sigma in seen:
            out.append(Violation("BASE", f"duplicate spherical root {sigma}"))
        seen.add(sigma)
        if sigma.is_zero():
            out.append(Violation("BASE", "spherical root with empty support"))
            continue
        # The sorted coefficients are walked only when one is negative.
        if min(sigma._coeffs.values()) < 0:
            for lab, coeff in sigma.items():
                if coeff < 0:
                    out.append(
                        Violation("BASE", f"negative coefficient of {lab} in {sigma}")
                    )
        if coroots is None:
            unknown = [lab for lab in sigma._coeffs if lab not in rs]
            for lab in sorted(unknown, key=repr):
                out.append(
                    Violation("BASE", f"spherical root {sigma} has label {lab!r}, "
                              "not a simple root")
                )
    # Nonzero vectors with nonnegative coefficients whose pairwise Cartan
    # numbers are all <= 0 are linearly independent (Humphreys, Introduction
    # to Lie Algebras and Representation Theory, 10.1).  So more spherical
    # roots than the rank break BASE: that is reported once, and the pairwise
    # loop, quadratic in their number, is skipped.
    if len(system.psi) > rs.rank:
        out.append(
            Violation("BASE", f"{len(system.psi)} spherical roots exceed the rank {rs.rank}")
        )
        return
    if coroots is None:
        return
    # The form is integral and positive definite on the root lattice, so the
    # Cartan number 2(sigma, tau)/(sigma, sigma) is checked in integers.
    # (sigma, tau_j) = sum over a of sigma_a * d_a * coroots[a][j].
    for i, sigma in enumerate(system.psi):
        if sigma.is_zero():
            continue
        forms = [0] * len(system.psi)
        for a, x in sigma._coeffs.items():
            w = x * rs.half_norm(a)
            forms = [f + w * c for f, c in zip(forms, coroots[a])]
        norm = forms[i]
        for j, tau in enumerate(system.psi):
            twice = 2 * forms[j]
            # Against itself, or a duplicate of itself, sigma reads 2: skip.
            if (twice % norm or twice > 0) and i != j and tau != sigma:
                out.append(
                    Violation(
                        "BASE",
                        f"Cartan number of ({sigma}, {tau}) is {_ratio_text(twice, norm)}, "
                        "not a nonpositive integer",
                    )
                )


def _check_p1(
    system: SphericalSystem, coroots: Dict[str, Tuple[int, ...]], out: List[Violation]
) -> None:
    for lab in system.rs.simple_roots:
        kind = system.type_map[lab]
        # A root that moves a color is never typed a (see `type_map`), and
        # P1 asks nothing of a type-a root: it is skipped before its half
        # coroot and coroot are built.
        if kind == TYPE_A:
            continue
        moved = system.colors_moved_by(lab)
        # Doubled, the half coroot's values are the coroot's integers.
        half = Functional._of_twice(coroots[lab])
        coroot = half + half
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
            for d in moved:
                value = d.phi.twice[system._simple[lab]]
                if value != 2:
                    out.append(
                        Violation(
                            "P1",
                            f"type-b root {lab}: <phi({d.id}), {lab}> = {half_text(value)} != 1",
                        )
                    )
        else:
            # Type c or d: one color, whose functional is the half coroot (c)
            # or the coroot (d).
            want, name = (half, "half coroot") if kind == TYPE_C else (coroot, "coroot")
            if len(moved) != 1:
                out.append(
                    Violation("P1", f"type-{kind} root {lab} has {len(moved)} colors, expected 1")
                )
            for d in moved:
                if d.phi != want:
                    out.append(
                        Violation(
                            "P1",
                            f"type-{kind} root {lab}: phi({d.id}) = {d.phi} differs from "
                            f"{name} {want}",
                        )
                    )


def _check_p2(system: SphericalSystem, out: List[Violation]) -> None:
    # A color moved by two type-b roots is checked once, at the first; colors
    # are told apart by identity, since ids may repeat before validation.
    seen = set()
    for lab in system.rs.simple_roots:
        if lab not in system._simple:
            continue
        for d in system.colors_moved_by(lab):
            if id(d) in seen:
                continue
            seen.add(id(d))
            for j, sigma in enumerate(system.psi):
                value = d.phi.twice[j]  # doubled: 2 stands for 1
                sigma_label = system.simple_labels[j]
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


def _check_p3(
    system: SphericalSystem, coroots: Dict[str, Tuple[int, ...]], out: List[Violation]
) -> None:
    rs = system.rs
    labels = rs.simple_roots
    types = system.type_map
    # A pair breaks P3 only if it shares a color id, or if both roots are
    # type d and their sum is a spherical root: (i, j) in `sums`, since a sum
    # of two simple roots is never twice one.  Either way both roots move a
    # color, so only those roots get their set of color ids.  Collect the
    # index pairs i < j both ways and visit them in simple-root order.
    moved = system._moved
    ids: Dict[str, frozenset] = {}
    by_id: Dict[str, List[int]] = {}
    for i, lab in enumerate(labels):
        if lab in moved:
            ids[lab] = lab_ids = frozenset(d.id for d in moved[lab])
            for color_id in lab_ids:
                by_id.setdefault(color_id, []).append(i)
    pairs = {pair for group in by_id.values() for pair in combinations(group, 2)}
    sums = set()
    for sigma in system.psi:
        if list(sigma._coeffs.values()) == [1, 1]:
            i, j = sorted(map(rs.index, sigma._coeffs))
            sums.add((i, j))
            if types[labels[i]] == TYPE_D and types[labels[j]] == TYPE_D:
                pairs.add((i, j))
    for i, j in sorted(pairs):
        la, lb = labels[i], labels[j]
        da, ta = ids[la], types[la]
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
                if (i, j) not in sums:
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
            and (i, j) in sums
        ):
            out.append(
                Violation(
                    "P3",
                    f"type-d roots {la}, {lb} satisfy the sharing conditions "
                    "but have different color sets",
                )
            )


def validate_system(system: SphericalSystem) -> ValidationReport:
    """Check BASE, P1, P2 and P3 (see the module docstring), exhaustively;
    Luna's axioms Sigma2 and S are not checked."""
    out: List[Violation] = []
    try:
        coroots = coroot_table(system)
    except RootSystemError:  # a label of a spherical root, reported in BASE
        coroots = None
    _check_base(system, coroots, out)
    seen_ids = set()
    lengths_match = True
    for d in system.colors:
        if d.id in seen_ids:
            out.append(Violation("P1", f"color id {d.id} is used by more than one color"))
        seen_ids.add(d.id)
        if len(d.phi) != len(system.psi):
            lengths_match = False
            out.append(
                Violation(
                    "P1",
                    f"color {d.id}: functional has {len(d.phi)} values for "
                    f"{len(system.psi)} spherical roots",
                )
            )
        if not d.moved_by:
            out.append(Violation("P1", f"color {d.id} is moved by no simple root"))
        # `type_map` is keyed by the simple roots: scan only a color moved by
        # a label outside them.
        if not system.type_map.keys() >= d.moved_by:
            unknown = [lab for lab in d.moved_by if lab not in system.rs]
            for lab in sorted(unknown, key=repr):
                out.append(
                    Violation("P1", f"color {d.id} is moved by {lab!r}, not a simple root")
                )
    if coroots is None or not lengths_match:
        return ValidationReport(tuple(out))
    _check_p1(system, coroots, out)
    _check_p2(system, out)
    _check_p3(system, coroots, out)
    return ValidationReport(tuple(out))
