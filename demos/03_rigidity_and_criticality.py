"""Distinguished spherical roots, rigidity, criticality on the catalog."""
from wondersys import critical_roots, distinguished_elements
from wondersys.catalog import catalog_entries

for entry in catalog_entries():
    system = entry.system
    report = distinguished_elements(system)
    print(f"{entry.name}: rigid={report.rigid}")
    for w in report.distinguished:
        print(f"  distinguished {w.root} (condition {w.condition}: {w.witness})")
    for e in critical_roots(system).entries:
        if e.distinguished:
            continue
        tag = "critical" if e.critical else "not critical"
        if e.vacuous:
            tag += " (vacuous: no admissible proper subsets)"
        elif e.failing_subset is not None:
            tag += f" (fails at {sorted(e.failing_subset)})"
        print(f"  {e.root}: {tag}")
