"""Independent root-system oracles.

`reflection_positive_roots` generates the full root set as the closure of
the simple roots under the simple reflections, then keeps the nonnegative
ones.  The package also reflects, but differently: it takes only the
height-raising reflections, one component at a time, along the sparse
Cartan columns `RootSystem` is built from, keeping each root's pairings and
building its vector once; this oracle takes the whole W-orbit of the
simple roots as LatticeVector, pairing through `cartan_integer`, and keeps
the positive roots at the end.
`block_cartan` and `block_pairing` read the Cartan matrix straight off each
component's standard block, not through the column index a `RootSystem`
keeps.
"""
from __future__ import annotations

from wondersys import LatticeVector, RootSystem, cartan_integer
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


def block_pairing(rs: RootSystem, alpha: str, lam: LatticeVector) -> int:
    """<alpha^vee, lam> summed over the component blocks, a row at a time."""
    cartan = block_cartan(rs)
    return sum(v * cartan.get((alpha, b), 0) for b, v in lam.items())


def reflection_positive_roots(rs: RootSystem) -> frozenset:
    simple = {lab: rs.simple_root(lab) for lab in rs.simple_roots}
    roots = set(simple.values())
    frontier = set(roots)
    while frontier:
        new = set()
        for beta in frontier:
            for lab, alpha in simple.items():
                image = beta - cartan_integer(rs, lab, beta) * alpha
                if image not in roots:
                    new.add(image)
        roots |= new
        frontier = new
    return frozenset(
        r for r in roots if all(v > 0 for _, v in r.items()) and not r.is_zero()
    )


def formula_count(rs: RootSystem) -> int:
    return sum(COUNT_FORMULAS[c.series](c.rank) for c in rs.components)
