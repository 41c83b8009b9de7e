"""Criticality by a closed-form rule, with no localization.

A localization that keeps a root's support leaves conditions 2 (the B_k
chain) and 3 (the G_2 pattern) as they are, so at a subset containing the
root's base only condition 1 can switch on.  A root sigma that is not
distinguished is therefore critical exactly when

- the case is vacuous: its base, the type-a roots and the support of
  sigma, covers every simple root; or
- sigma is a simple root with two colors, and every spherical root tau on
  which their functionals differ has in its support every label outside
  the base.  The localization at all labels but x keeps exactly the
  spherical roots whose support misses x, so the two colors stay apart
  there when some such tau misses x, and agree when every one holds x.

`failing_subset` is every label but one x: taken among the labels outside
the base in reversed label order, x is the first one missing from the
support of some such tau, or simply the first one when sigma is not a
simple root with two colors.  That is the coatom `critical_roots` stops
at.  `closed_form_critical_roots` must equal `critical_roots` on every
field.
"""
from __future__ import annotations

from wondersys import CriticalityEntry, CriticalityReport, SphericalSystem, type_a_roots
from wondersys.rigidity import _distinguished_witness


def closed_form_critical_roots(system: SphericalSystem) -> CriticalityReport:
    labels = system.rs.simple_roots
    full = frozenset(labels)
    type_a = type_a_roots(system)
    entries = []
    for j, sigma in enumerate(system.psi):
        if _distinguished_witness(system, j) is not None:
            entries.append(CriticalityEntry(sigma, distinguished=True, critical=False))
            continue
        base = type_a | sigma.support
        outside = [x for x in reversed(labels) if x not in base]
        label = system.simple_labels[j]
        moved = system.colors_moved_by(label) if label is not None else ()
        if len(moved) == 2:
            d1, d2 = moved
            apart = [tau.support for k, tau in enumerate(system.psi) if d1.phi[k] != d2.phi[k]]
            failing = [x for x in outside if any(x not in supp for supp in apart)]
        else:
            failing = outside
        entries.append(
            CriticalityEntry(
                sigma,
                distinguished=False,
                critical=not failing,
                vacuous=not outside,
                failing_subset=full - {failing[0]} if failing else None,
            )
        )
    return CriticalityReport(tuple(entries))
