"""The byte oracle for `serialize.dumps`, and hand-built systems that stress it.

`system_to_document` builds the document as a dict, with labels renamed
a1..aN, and `oracle_dumps` lays it out with json's own encoder, as `dumps`
did before it wrote the text directly; the two must agree byte for byte.
`writer_edge_cases` are systems whose documents take the writer's
rarer branches: empty lists and objects, labels past a9 (string key order
puts a10 before a2), negative and half values, and color ids that need
escaping.  They are built through long-standing public API only, so
`tests/outputs_digest.py` can read them against an older `src/`.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from wondersys import (
    Color,
    Functional,
    LatticeVector,
    RootSystemError,
    SphericalSystem,
    build_root_system,
)

# Ids that json escapes: a quote, a backslash, control characters, DEL,
# non-ASCII text (one character outside the BMP) and a lone surrogate.
ESCAPED_IDS = ('say "hi"', "back\\slash", "tab\tnul\x00\x1f\n", "del\x7f", "Dü€𝔖", "\ud800")


def _encode_value(twice: int) -> Any:
    """A doubled functional value as JSON: an int, or "p/2" for a half."""
    return f"{twice}/2" if twice % 2 else twice // 2


def system_to_document(system: SphericalSystem) -> Dict[str, Any]:
    """Serialize with labels renamed canonically to a1..aN in system order;
    a label outside the root system raises RootSystemError."""
    rename = {lab: f"a{i + 1}" for i, lab in enumerate(system.rs.simple_roots)}
    try:
        return {
            "root_system": {
                "components": [
                    {"series": c.series, "rank": c.rank} for c in system.rs.components
                ]
            },
            "spherical_roots": [
                {"coeffs": {rename[lab]: v for lab, v in sigma.items()}}
                for sigma in system.psi
            ],
            "colors": [
                {
                    "id": d.id,
                    "moved_by": sorted(
                        (rename[lab] for lab in d.moved_by),
                        key=lambda s: int(s[1:]),
                    ),
                    "phi": [_encode_value(t) for t in d.phi.twice],
                }
                for d in system.colors
            ],
        }
    except KeyError as exc:
        raise RootSystemError(f"unknown simple-root label {exc.args[0]!r}") from None


def oracle_dumps(system: SphericalSystem) -> str:
    return json.dumps(system_to_document(system), indent=2, sort_keys=True) + "\n"


def writer_edge_cases() -> List[Tuple[str, SphericalSystem]]:
    a1, a2 = build_root_system([("A", 1)]), build_root_system([("A", 2)])
    a12 = build_root_system([("A", 12)])
    mixed = build_root_system([("B", 3), ("G", 2), ("A", 1)])
    half = Fraction(1, 2)
    return [
        ("empty", SphericalSystem(build_root_system([]), [], [])),
        (
            "no-spherical-roots",
            SphericalSystem(a2, [], [Color("D", {"a2", "a1"}, Functional([]))]),
        ),
        ("no-colors", SphericalSystem(a1, [LatticeVector({"a1": 2})], [])),
        (
            "zero-root-and-unmoved-color",
            SphericalSystem(a1, [LatticeVector({})], [Color("D", [], Functional([0]))]),
        ),
        (
            "rank-twelve",
            SphericalSystem(
                a12,
                [
                    LatticeVector({f"a{i}": i for i in range(1, 13)}),
                    LatticeVector({"a10": 1, "a2": 1, "a1": 1, "a11": 1}),
                ],
                [
                    Color("D12", ["a12", "a10", "a2", "a9", "a11", "a1"], Functional([1, -1])),
                    Color("D3", ["a3"], Functional([0, half])),
                ],
            ),
        ),
        (
            "negative-and-half",
            SphericalSystem(
                mixed,
                [
                    LatticeVector({"a1": -3, "a3": 2}),
                    LatticeVector({"a4": -1, "a5": 5}),
                    LatticeVector({"a6": -10**20}),
                ],
                [
                    Color("Dm", ["a6", "a4"], Functional([-half, Fraction(-7, 2), -2])),
                    Color("Dp", ["a3"], Functional([half, 0, Fraction(10**20 + 1, 2)])),
                ],
            ),
        ),
        (
            "escaped-ids",
            SphericalSystem(
                a2,
                [LatticeVector({"a1": 1})],
                [Color(cid, ["a1"], Functional([k])) for k, cid in enumerate(ESCAPED_IDS)],
            ),
        ),
    ]
