"""Exact combinatorics of spherical systems: root-system arithmetic,
axiom validation, localization, rigidity, criticality and orbit posets."""
from __future__ import annotations

from .catalog import CatalogEntry, catalog_entries, catalog_entry
from .localize import localize, type_a_roots
from .orbits import OrbitPoset, emit_graph, orbit_poset
from .rigidity import (
    CriticalityEntry,
    CriticalityReport,
    DistinguishedWitness,
    RigidityReport,
    critical_roots,
    critical_roots_oracle,
    distinguished_elements,
)
from .rootlat import (
    Component,
    Functional,
    LatticeVector,
    RootSystem,
    RootSystemError,
    build_root_system,
    detect_subdiagram_type,
    positive_roots,
)
from .serialize import (
    DocumentError,
    document_to_system,
    dumps,
    loads,
)
from .sphsys import (
    Color,
    SphericalSystem,
    ValidationReport,
    Violation,
    validate_system,
)

__all__ = [
    "CatalogEntry",
    "Color",
    "Component",
    "CriticalityEntry",
    "CriticalityReport",
    "DistinguishedWitness",
    "DocumentError",
    "Functional",
    "LatticeVector",
    "OrbitPoset",
    "RigidityReport",
    "RootSystem",
    "RootSystemError",
    "SphericalSystem",
    "ValidationReport",
    "Violation",
    "build_root_system",
    "catalog_entries",
    "catalog_entry",
    "critical_roots",
    "critical_roots_oracle",
    "detect_subdiagram_type",
    "distinguished_elements",
    "document_to_system",
    "dumps",
    "emit_graph",
    "loads",
    "localize",
    "orbit_poset",
    "positive_roots",
    "type_a_roots",
    "validate_system",
]

__version__ = "0.1.0"
