"""Distinguished spherical roots, rigidity, and criticality.

A spherical root is distinguished if it is a simple root whose two colors
carry equal functionals, or the full sum of a B_k chain whose tail is of
type a, or the pattern long + twice-short inside a G_2 pair.  A system is
rigid when nothing is distinguished.  A non-distinguished root is critical
when it becomes distinguished in every proper localization containing the
type-a roots and its support.

Conditions 2 and 3 are read off the Cartan entries on a root's support: a
-3 between its two labels, or one -2 at the end of a path that covers it.

Both criticality functions run one loop over the spherical roots and differ
only in the subsets they try and in what they ask there.  A subset is
localized at most once per call and its localization kept for every root
that tries it; there only the root trying it is checked, found among the
kept roots by `psi.index`.  A repeated root is found at its first copy,
which gives the same verdict, since every condition reads the root's
vector and the localization, never the root's position.  A localization
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
from .rootlat import LatticeVector, Record, _set
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
    rs = system.rs
    # Condition 3: long + twice the short root v of a G_2 pair, whose Cartan
    # entry a_vu is -3.
    if sorted(coeffs.values()) == [1, 2]:
        u, v = sorted(coeffs, key=coeffs.get)
        if rs.cartan_entry(v, u) == -3:
            return DistinguishedWitness(sigma, 3, f"G2 pair ({u} long, {v} short)")
        return None
    # Condition 2: sigma is the full chain sum of a B_k sub-diagram whose
    # roots after the first are all of type a.  The chain's one double bond
    # puts a -2 in the row of its short root, the last; the walk from there
    # must cover the support and ends at the first.
    if len(coeffs) < 2 or any(c != 1 for c in coeffs.values()):
        return None
    chain = [r for c in coeffs for r, x in rs.column(c) if x == -2 and r in coeffs]
    if len(chain) != 1:
        return None
    while len(chain) < len(coeffs):
        step = [r for r, x in rs.column(chain[-1]) if x < 0 and r in coeffs and r not in chain]
        if len(step) != 1:
            return None
        chain += step
    if any(system.type_map[lab] != TYPE_A for lab in chain[:-1]):
        return None
    return DistinguishedWitness(
        sigma, 2, f"B{len(chain)} chain {'+'.join(reversed(chain))} with type-a tail"
    )


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
    localized = {}  # subset -> the localization there

    def distinguished_at(subset: frozenset, sigma: LatticeVector) -> bool:
        if subset not in localized:
            localized[subset] = localize(system, subset)
        local = localized[subset]
        return witness(local, local.psi.index(sigma)) is not None

    entries = []
    for j, sigma in enumerate(system.psi):
        if _distinguished_witness(system, j) is not None:
            entries.append(CriticalityEntry(sigma, distinguished=True, critical=False))
            continue
        base = type_a | sigma.support
        failing = next(
            (sub for sub in subsets(labels, full, base) if not distinguished_at(sub, sigma)),
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
