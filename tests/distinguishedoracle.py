"""The distinguished-root test, reading conditions 2 and 3 off the recognizer.

`oracle_distinguished_witness` types the support of every spherical root
with two or more labels by `detect_subdiagram_type` and reads the canonical
B_k and G_2 orderings it returns.  `_distinguished_witness` reads the same
conditions off the Cartan entries on the support; both must give equal
witnesses on every system.
"""
from __future__ import annotations

from typing import Optional

from wondersys.rigidity import DistinguishedWitness, _equal_colors_witness
from wondersys.rootlat import detect_subdiagram_type
from wondersys.sphsys import TYPE_A, SphericalSystem


def oracle_distinguished_witness(
    system: SphericalSystem, j: int
) -> Optional[DistinguishedWitness]:
    """The witness that psi[j] is distinguished, or None."""
    found = _equal_colors_witness(system, j)
    if found is not None:
        return found
    sigma = system.psi[j]
    supp = sigma.support
    if len(supp) < 2:
        return None
    comps = detect_subdiagram_type(system.rs, supp)
    if len(comps) != 1:
        return None
    comp = comps[0]
    coeffs = dict(sigma.items())
    # Condition 2: sigma is the full chain sum of a B_k sub-diagram whose
    # roots after the first are all of type a.
    if comp.series == "B" and all(coeffs.get(lab, 0) == 1 for lab in comp.labels):
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
        if coeffs.get(long_root, 0) == 1 and coeffs.get(short_root, 0) == 2:
            return DistinguishedWitness(
                sigma, 3, f"G2 pair ({long_root} long, {short_root} short)"
            )
    return None
