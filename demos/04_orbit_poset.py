"""The orbit poset of a rank-2 system as a DOT digraph."""
from wondersys import emit_graph, orbit_poset
from wondersys.catalog import catalog_entry

system = catalog_entry("group-a1a1").system
poset = orbit_poset(system)
print(f"rank {poset.rank}: {len(poset.nodes)} orbits, {len(poset.edges)} covers")
for node in poset.nodes:
    label = "{" + ",".join(sorted(f"s{i + 1}" for i in node)) + "}"
    print(f"  {label} has {poset.rank - len(node)} "
          "boundary divisors through it remaining")
print(emit_graph(poset))
