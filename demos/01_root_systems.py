"""Exact root-system arithmetic: Cartan data, pairings, sub-diagrams."""
from wondersys import (
    LatticeVector,
    build_root_system,
    detect_subdiagram_type,
    positive_roots,
)

# A G_2 root system: the second simple root is the short one.
g2 = build_root_system([("G", 2)])
print("G2 Cartan entries:",
      g2.cartan_entry("a1", "a2"), g2.cartan_entry("a2", "a1"))
# The squared length of a simple root is twice its half-norm d_a.
print("squared lengths:", 2 * g2.half_norm("a1"), 2 * g2.half_norm("a2"))

# The coroot of a1 pairs with a vector through the Cartan entries a_1b.
highest = LatticeVector({"a1": 2, "a2": 3})
print("pairing of a1-coroot with the highest root:",
      sum(v * g2.cartan_entry("a1", b) for b, v in highest.items()))

print("number of positive roots of G2:", len(positive_roots(g2)))

# Sub-diagram detection inside B_4: the last two nodes form a B_2, the
# first two an A_2 made of long roots.
b4 = build_root_system([("B", 4)])
for subset in ({"a3", "a4"}, {"a1", "a2"}, {"a1", "a2", "a4"}):
    comps = detect_subdiagram_type(b4, subset)
    print(sorted(subset), "->", [(c.series, c.rank, c.labels) for c in comps])
