"""Independent root-system oracles.

They read the Cartan matrix and the root lengths straight off each
component's standard block (`component_cartan`), never through the label
table a `RootSystem` keeps or the component table `_COMPONENTS` it and
`positive_roots` are built from, so a wrong entry in that table shows as a
disagreement.  `block_cartan` and `block_lengths` read the blocks once per
root system; `block_pairing` pairs a coroot with a vector through them,
and `gram_form` is the invariant form (Humphreys, Introduction to Lie
Algebras and Representation Theory, 10.1).

`reflection_positive_roots` generates the full root set as the closure of
the simple roots under the simple reflections, then keeps the nonnegative
ones.  The package also reflects, but differently: it takes only the
height-raising reflections, one component at a time, along the sparse
Cartan columns, keeping each root's pairings and building its vector once;
this oracle takes the whole W-orbit of the simple roots as LatticeVector,
pairing through `block_pairing`, and keeps the positive roots at the end.
"""
from __future__ import annotations

from wondersys import LatticeVector, RootSystem
from wondersys.rootlat import component_cartan

# Closed-form positive-root counts per simple component.
COUNT_FORMULAS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def block_cartan(rs: RootSystem) -> dict:
    """The nonzero Cartan entries {(a, b): a_ab}, read off the standard block
    of each component; every pair across components is absent, that is 0."""
    entries = {}
    for comp in rs.components:
        block, _ = component_cartan(comp.series, comp.rank)
        for a, row in zip(comp.labels, block):
            for b, x in zip(comp.labels, row):
                if x:
                    entries[a, b] = x
    return entries


def block_lengths(rs: RootSystem) -> dict:
    """The squared length of every simple root, {a: |alpha_a|^2}, read off
    the standard lengths of each component."""
    lengths = {}
    for comp in rs.components:
        _, lens = component_cartan(comp.series, comp.rank)
        lengths.update(zip(comp.labels, lens))
    return lengths


def block_pairing(cartan: dict, alpha: str, lam: LatticeVector) -> int:
    """<alpha^vee, lam>, summed over the entries `block_cartan` read."""
    return sum(v * cartan.get((alpha, b), 0) for b, v in lam.items())


def gram_form(cartan: dict, lengths: dict, v: LatticeVector, w: LatticeVector) -> int:
    """(v, w) = sum_ab x_a y_b a_ab |alpha_a|^2 / 2, from the entries of
    `block_cartan` and the lengths of `block_lengths`.  Every squared length
    is even, so the halving is exact."""
    total = sum(
        x * y * cartan.get((a, b), 0) * lengths[a] for a, x in v.items() for b, y in w.items()
    )
    return total // 2


def reflection_positive_roots(rs: RootSystem) -> frozenset:
    cartan = block_cartan(rs)
    simple = {lab: LatticeVector({lab: 1}) for lab in rs.simple_roots}
    roots = set(simple.values())
    frontier = set(roots)
    while frontier:
        new = set()
        for beta in frontier:
            for lab, alpha in simple.items():
                image = beta - block_pairing(cartan, lab, beta) * alpha
                if image not in roots:
                    new.add(image)
        roots |= new
        frontier = new
    return frozenset(
        r for r in roots if all(v > 0 for _, v in r.items()) and not r.is_zero()
    )


def formula_count(rs: RootSystem) -> int:
    return sum(COUNT_FORMULAS[c.series](c.rank) for c in rs.components)
