"""Distinguished spherical roots, rigidity, and criticality.

A spherical root is distinguished if it is a simple root whose two colors
carry equal functionals, or the full sum of a B_k chain whose tail is of
type a, or the pattern long + twice-short inside a G_2 pair.  A system is
rigid when nothing is distinguished.  A non-distinguished root is critical
when it becomes distinguished in every proper localization containing the
type-a roots and its support.

Both criticality functions run one loop over the spherical roots and differ
only in the subsets they try.  A subset is localized at most once per call;
the roots distinguished there are shared by every root that tries it.
"""
from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from .localize import localize, type_a_roots
from .rootlat import LatticeVector, Record, _set, detect_subdiagram_type
from .sphsys import SphericalSystem, TYPE_A


class DistinguishedWitness(Record):
    __slots__ = ("root", "condition", "witness")

    def __init__(self, root: LatticeVector, condition: int, witness: str):
        _set(self, "root", root)
        # 1: equal color pair, 2: B_k chain sum, 3: G_2 pattern
        _set(self, "condition", condition)
        _set(self, "witness", witness)


class RigidityReport(Record):
    __slots__ = ("distinguished",)

    def __init__(self, distinguished: Tuple[DistinguishedWitness, ...]):
        _set(self, "distinguished", distinguished)

    @property
    def rigid(self) -> bool:
        return not self.distinguished

    def roots(self) -> frozenset:
        return frozenset(w.root for w in self.distinguished)


class CriticalityEntry(Record):
    __slots__ = ("root", "distinguished", "critical", "vacuous", "failing_subset")

    def __init__(
        self,
        root: LatticeVector,
        distinguished: bool,
        critical: bool,
        vacuous: bool = False,
        failing_subset: Optional[frozenset] = None,
    ):
        _set(self, "root", root)
        _set(self, "distinguished", distinguished)
        _set(self, "critical", critical)
        _set(self, "vacuous", vacuous)
        _set(self, "failing_subset", failing_subset)


class CriticalityReport(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[CriticalityEntry, ...]):
        _set(self, "entries", entries)


def _distinguished_witness(system: SphericalSystem, j: int) -> Optional[DistinguishedWitness]:
    """The witness that psi[j] is distinguished, or None."""
    sigma = system.psi[j]
    # Condition 1: a simple spherical root with two equal color functionals.
    label = system.simple_labels[j]
    if label is not None:
        moved = system.colors_moved_by(label)
        for d1, d2 in itertools.combinations(moved, 2):
            if d1.phi == d2.phi:
                return DistinguishedWitness(
                    sigma, 1, f"colors {d1.id}, {d2.id} of {label} have equal phi"
                )
    supp = sigma.support
    if len(supp) < 2:
        return None
    comps = detect_subdiagram_type(system.rs, supp)
    if len(comps) != 1:
        return None
    comp = comps[0]
    # Condition 2: sigma is the full chain sum of a B_k sub-diagram whose
    # roots after the first are all of type a.
    if comp.series == "B" and all(sigma.coeff(lab) == 1 for lab in comp.labels):
        tail = comp.labels[1:]
        if all(system.type_map[lab] == TYPE_A for lab in tail):
            return DistinguishedWitness(
                sigma,
                2,
                f"B{comp.rank} chain {'+'.join(comp.labels)} with type-a tail",
            )
    # Condition 3: long + twice the short root of a G_2 sub-diagram.
    if comp.series == "G":
        long_root, short_root = comp.labels
        if sigma.coeff(long_root) == 1 and sigma.coeff(short_root) == 2:
            return DistinguishedWitness(
                sigma, 3, f"G2 pair ({long_root} long, {short_root} short)"
            )
    return None


def distinguished_elements(system: SphericalSystem) -> RigidityReport:
    found = (_distinguished_witness(system, j) for j in range(len(system.psi)))
    return RigidityReport(tuple(w for w in found if w is not None))


def is_rigid(system: SphericalSystem) -> bool:
    return distinguished_elements(system).rigid


def _coatoms(labels: Tuple[str, ...], base: frozenset) -> List[frozenset]:
    """All labels but one x outside `base`, in the order `_proper_supersets`
    yields them, so both report the same `failing_subset`."""
    full = frozenset(labels)
    return [full - {x} for x in reversed(labels) if x not in base]


def _proper_supersets(labels: Tuple[str, ...], base: frozenset):
    """Proper subsets of the labels containing `base`, largest first."""
    free = [lab for lab in labels if lab not in base]
    for size in range(len(free) - 1, -1, -1):
        for extra in itertools.combinations(free, size):
            yield base | frozenset(extra)


def _criticality(system: SphericalSystem, subsets) -> CriticalityReport:
    """A root is critical when it is distinguished at every subset that
    `subsets(labels, base)` yields for its base (vacuously when the base is
    every label and nothing is yielded); each subset is localized once."""
    labels = tuple(system.rs.simple_roots)
    type_a = type_a_roots(system)
    localized = {}  # subset -> roots distinguished in the localization

    def distinguished_at(subset: frozenset) -> frozenset:
        if subset not in localized:
            localized[subset] = distinguished_elements(localize(system, subset)).roots()
        return localized[subset]

    entries = []
    for j, sigma in enumerate(system.psi):
        if _distinguished_witness(system, j) is not None:
            entries.append(CriticalityEntry(sigma, distinguished=True, critical=False))
            continue
        base = type_a | sigma.support
        failing = next(
            (sub for sub in subsets(labels, base) if sigma not in distinguished_at(sub)),
            None,
        )
        entries.append(
            CriticalityEntry(
                sigma,
                distinguished=False,
                critical=failing is None,
                vacuous=base >= frozenset(labels),
                failing_subset=failing,
            )
        )
    return CriticalityReport(tuple(entries))


def critical_roots_oracle(system: SphericalSystem) -> CriticalityReport:
    """Brute-force criticality: quantify over every admissible proper subset."""
    return _criticality(system, _proper_supersets)


def critical_roots(system: SphericalSystem) -> CriticalityReport:
    """Criticality via the co-atom reduction.

    By monotonicity of distinguishedness under localization it suffices to
    test the maximal proper subsets containing the base: all simple roots
    but one.  Roots share these coatoms, and each is localized once per
    call; agreement with the oracle is enforced by the test suite.
    """
    return _criticality(system, _coatoms)
