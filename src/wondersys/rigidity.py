"""Distinguished spherical roots, rigidity, and criticality.

A spherical root is distinguished if it is a simple root whose two colors
carry equal functionals, or the full sum of a B_k chain whose tail is of
type a, or the pattern long + twice-short inside a G_2 pair.  A system is
rigid when nothing is distinguished.  A non-distinguished root is critical
when it becomes distinguished in every proper localization containing the
type-a roots and its support.

Conditions 2 and 3 are read off the typed sub-diagram on a root's support,
but the recognizer is asked only when the root has a shape one of them can
take: every coefficient 1 with at most one label of the support not of type
a (a B_k chain's first root and its type-a tail), or the coefficients 1 and
2 on two labels (the G_2 pattern).  Any other root is left undistinguished
by both, as the recognizer's answer would leave it.

Both criticality functions run one loop over the spherical roots and differ
only in the subsets they try and in what they ask there.  A subset is
localized at most once per call and its localization kept for every root
that tries it; there only the root trying it is checked.  A localization
that keeps a root's support keeps the root, the induced diagram on its
support and the type map there, so conditions 2 and 3 read there as they
read in the system itself; `critical_roots` asks only condition 1 at each
coatom, while the oracle asks every condition at every subset.  The oracle
tries up to 2^k - 1 subsets for a root with k simple roots outside its
base, so it refuses k above MAX_ORACLE_FREE_LABELS.
"""
from __future__ import annotations

import itertools
from typing import Optional, Tuple

from .localize import localize, type_a_roots
from .rootlat import LatticeVector, Record, _set, detect_subdiagram_type
from .sphsys import SphericalSystem, TYPE_A


# Most simple roots outside a spherical root's base that the oracle searches
# over: up to 2^24 - 1 subsets per root, where MAX_RANK alone allows 2^63.
MAX_ORACLE_FREE_LABELS = 24


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


def _equal_colors_witness(system: SphericalSystem, j: int) -> Optional[DistinguishedWitness]:
    """The witness of condition 1 for psi[j], or None: psi[j] is a simple
    root with two colors whose functionals are equal."""
    label = system.simple_labels[j]
    if label is not None:
        moved = system.colors_moved_by(label)
        for d1, d2 in itertools.combinations(moved, 2):
            if d1.phi == d2.phi:
                return DistinguishedWitness(
                    system.psi[j], 1, f"colors {d1.id}, {d2.id} of {label} have equal phi"
                )
    return None


def _distinguished_witness(system: SphericalSystem, j: int) -> Optional[DistinguishedWitness]:
    """The witness that psi[j] is distinguished, or None."""
    found = _equal_colors_witness(system, j)
    if found is not None:
        return found
    sigma = system.psi[j]
    coeffs = sigma._coeffs
    # The shape guard: condition 2 needs every coefficient 1 and at most one
    # label (the chain's first) not of type a, condition 3 the coefficients
    # 1 and 2 on two labels; no other root asks the recognizer.
    if len(coeffs) < 2:
        return None
    if all(c == 1 for c in coeffs.values()):
        types = system.type_map
        if sum(types.get(lab) != TYPE_A for lab in coeffs) > 1:
            return None
    elif len(coeffs) != 2 or sorted(coeffs.values()) != [1, 2]:
        return None
    comps = detect_subdiagram_type(system.rs, sigma.support)
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


def _coatoms(labels: Tuple[str, ...], full: frozenset, base: frozenset):
    """All labels but one x outside `base`, in the order `_proper_supersets`
    yields them, so both report the same `failing_subset`; each is built
    only when the search reaches it.  `full` is the set of `labels`."""
    for x in reversed(labels):
        if x not in base:
            yield full - {x}


def _proper_supersets(labels: Tuple[str, ...], full: frozenset, base: frozenset):
    """Proper subsets of the labels containing `base`, largest first."""
    free = [lab for lab in labels if lab not in base]
    for size in range(len(free) - 1, -1, -1):
        for extra in itertools.combinations(free, size):
            yield base | frozenset(extra)


def _criticality(system: SphericalSystem, subsets, witness) -> CriticalityReport:
    """A root is critical when it is distinguished at every subset that
    `subsets(labels, full, base)` yields for its base (vacuously when the base is
    every label and nothing is yielded).  Each subset is localized once;
    at each one only the root that tries it is asked about, by
    `witness(localization, index)`."""
    labels = tuple(system.rs.simple_roots)
    full = frozenset(labels)
    type_a = type_a_roots(system)
    supports = [sigma.support for sigma in system.psi]
    localized = {}  # subset -> the localization there

    def distinguished_at(subset: frozenset, j: int) -> bool:
        if subset not in localized:
            localized[subset] = localize(system, subset)
        # psi[j] is kept, after every kept root before it.
        k = sum(1 for supp in supports[:j] if supp <= subset)
        return witness(localized[subset], k) is not None

    entries = []
    for j, sigma in enumerate(system.psi):
        if _distinguished_witness(system, j) is not None:
            entries.append(CriticalityEntry(sigma, distinguished=True, critical=False))
            continue
        base = type_a | supports[j]
        failing = next(
            (sub for sub in subsets(labels, full, base) if not distinguished_at(sub, j)),
            None,
        )
        entries.append(
            CriticalityEntry(
                sigma,
                distinguished=False,
                critical=failing is None,
                vacuous=base >= full,
                failing_subset=failing,
            )
        )
    return CriticalityReport(tuple(entries))


def critical_roots_oracle(system: SphericalSystem) -> CriticalityReport:
    """Brute-force criticality: quantify over every admissible proper subset.

    Raises ValueError, before anything is localized, when a spherical root
    has more than MAX_ORACLE_FREE_LABELS simple roots outside its base."""
    type_a = type_a_roots(system)
    for j, sigma in enumerate(system.psi):
        free = system.rs.rank - len(type_a | sigma.support)
        if free > MAX_ORACLE_FREE_LABELS:
            raise ValueError(
                f"oracle search at s{j + 1}: {free} simple roots outside its base "
                f"exceed the limit {MAX_ORACLE_FREE_LABELS}"
            )
    return _criticality(system, _proper_supersets, _distinguished_witness)


def critical_roots(system: SphericalSystem) -> CriticalityReport:
    """Criticality via the co-atom reduction.

    By monotonicity of distinguishedness under localization it suffices to
    test the maximal proper subsets containing the base: all simple roots
    but one, tried from the last label back until one fails.  Roots share
    these coatoms: each is localized once per call, and at each only the
    root trying it is checked, for condition 1 alone, since a root that
    conditions 2 and 3 leave undistinguished in the system stays so in
    every localization that keeps its support.  Agreement with the oracle,
    which asks every condition, is enforced by the test suite.
    """
    return _criticality(system, _coatoms, _equal_colors_witness)
