"""JSON document format for spherical systems.

A document is a single object with `root_system`, `spherical_roots` and
`colors` fields.  Simple roots are labelled a1, a2, ... in the canonical
order of the components; functionals are listed in spherical-root order,
with halves written as "p/2" strings.  Each phi value is read straight into
its doubled int: an int n gives 2n, "p/2" gives p and "p/1" gives 2p; any
other spelling is a parsing error.  Parsing errors name the offending field
and label; a root system of total rank above MAX_RANK, a color id used twice
and a label listed twice in one `moved_by` are parsing errors too.

`dumps` writes the document text in one pass over the system, laid out
byte for byte as `json.dumps(system_to_document(s), indent=2,
sort_keys=True)` would lay it out: two-space indentation, keys in string
order (so `a10` precedes `a2` among a spherical root's coefficients),
`moved_by` in simple-root order and `[]` or `{}` for an empty list or
object.  Labels and numbers need no escaping; a color id, which `Color`
requires to be a non-empty `str`, goes through json's own string escaper.
`system_to_document` gives the same document as a dict.
"""
from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List

from .rootlat import (
    Functional,
    LatticeVector,
    RootSystemError,
    build_root_system,
    half_text,
)
from .sphsys import Color, SphericalSystem

SERIES_SET = set("ABCDEFG")


class DocumentError(ValueError):
    """Malformed spherical-system document."""


def _encode_value(twice: int) -> Any:
    """A doubled functional value as JSON: an int, or "p/2" for a half."""
    return f"{twice}/2" if twice % 2 else twice // 2


# "p/q": an optional minus and ASCII digits over a denominator without a
# leading zero.
_RATIONAL = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)")


def _decode_twice(raw: Any, where: str, j: int) -> int:
    """Phi value `where[j]` as its doubled int."""
    if type(raw) is int:
        return 2 * raw
    if not isinstance(raw, str):
        name = type(raw).__name__
        raise DocumentError(f"{where}[{j}]: expected integer or 'p/2' string, got {name}")
    match = _RATIONAL.fullmatch(raw)
    if match:
        if match[2] not in ("1", "2"):
            raise DocumentError(f"{where}[{j}]: denominator of {raw!r} must divide 2")
        try:
            return int(match[1]) if match[2] == "2" else 2 * int(match[1])
        except ValueError:  # more digits than the interpreter converts
            pass
    raise DocumentError(f"{where}[{j}]: cannot parse rational {raw!r}")


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


def document_to_system(doc: Any) -> SphericalSystem:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    try:
        components = doc["root_system"]["components"]
    except (KeyError, TypeError):
        raise DocumentError("missing root_system.components") from None
    if not isinstance(components, list):
        raise DocumentError("root_system.components must be a list")
    spec = []
    for k, comp in enumerate(components):
        if not isinstance(comp, dict) or "series" not in comp or "rank" not in comp:
            raise DocumentError(f"root_system.components[{k}]: need series and rank")
        series, rank = comp["series"], comp["rank"]
        if series not in SERIES_SET or not isinstance(rank, int) or isinstance(rank, bool):
            raise DocumentError(
                f"root_system.components[{k}]: invalid series/rank {series!r}/{rank!r}"
            )
        spec.append((series, rank))
    try:
        rs = build_root_system(spec)
    except RootSystemError as exc:
        raise DocumentError(f"root_system: {exc}") from None

    psi: List[LatticeVector] = []
    raw_roots = doc.get("spherical_roots", [])
    if not isinstance(raw_roots, list):
        raise DocumentError("spherical_roots must be a list")
    for k, raw in enumerate(raw_roots):
        if not isinstance(raw, dict) or not isinstance(raw.get("coeffs"), dict):
            raise DocumentError(f"spherical_roots[{k}]: need a coeffs object")
        coeffs = {}
        for lab, v in raw["coeffs"].items():
            if lab not in rs:
                raise DocumentError(f"spherical_roots[{k}]: unknown label {lab!r}")
            if type(v) is not int:
                raise DocumentError(f"spherical_roots[{k}]: coefficient of {lab!r} not an integer")
            coeffs[lab] = v
        psi.append(LatticeVector._of_ints(coeffs))

    colors: List[Color] = []
    ids = set()
    raw_colors = doc.get("colors", [])
    if not isinstance(raw_colors, list):
        raise DocumentError("colors must be a list")
    for k, raw in enumerate(raw_colors):
        if not isinstance(raw, dict):
            raise DocumentError(f"colors[{k}]: must be an object")
        cid = raw.get("id")
        if not isinstance(cid, str) or not cid:
            raise DocumentError(f"colors[{k}]: missing id")
        if cid in ids:
            raise DocumentError(f"colors[{k}] ({cid}): duplicate id")
        ids.add(cid)
        moved = raw.get("moved_by")
        if not isinstance(moved, list) or not moved:
            raise DocumentError(f"colors[{k}] ({cid}): moved_by must be a nonempty list")
        seen = set()
        for lab in moved:
            if not isinstance(lab, str) or lab not in rs:
                raise DocumentError(f"colors[{k}] ({cid}): unknown label {lab!r}")
            if lab in seen:
                raise DocumentError(f"colors[{k}] ({cid}): moved_by lists {lab!r} twice")
            seen.add(lab)
        phi_raw = raw.get("phi")
        if not isinstance(phi_raw, list):
            raise DocumentError(f"colors[{k}] ({cid}): phi must be a list")
        if len(phi_raw) != len(psi):
            raise DocumentError(
                f"colors[{k}] ({cid}): phi has {len(phi_raw)} values for "
                f"{len(psi)} spherical roots"
            )
        where = f"colors[{k}] ({cid}).phi"
        phi = tuple(_decode_twice(v, where, j) for j, v in enumerate(phi_raw))
        colors.append(Color(cid, seen, Functional._of_twice(phi)))

    return SphericalSystem(rs, psi, colors)


def _nest(items: List[str], pad: str, brackets: str = "[]") -> str:
    """Written items as one indented JSON list (or, with brackets "{}", object)
    whose closing bracket sits at indentation `pad`."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def dumps(system: SphericalSystem) -> str:
    """The document text, byte for byte what `json.dumps` writes for
    `system_to_document(system)` with `indent=2, sort_keys=True`, plus a
    newline.  A label outside the root system raises RootSystemError."""
    rs = system.rs
    index = {lab: i for i, lab in enumerate(rs.simple_roots)}
    names = [f'"a{i + 1}"' for i in range(len(index))]
    components = [
        f'{{\n        "rank": {c.rank},\n        "series": "{c.series}"\n      }}'
        for c in rs.components
    ]
    pad = " " * 6
    try:
        colors = [
            '{\n      "id": %s,\n      "moved_by": %s,\n      "phi": %s\n    }'
            % (
                encode_basestring_ascii(d.id),
                _nest([names[i] for i in sorted([index[lab] for lab in d.moved_by])], pad),
                _nest([f'"{half_text(t)}"' if t % 2 else half_text(t) for t in d.phi.twice], pad),
            )
            for d in system.colors
        ]
        roots = []
        for sigma in system.psi:
            coeffs = [f"{names[index[lab]]}: {v}" for lab, v in sigma._coeffs.items()]
            # The closing quote sorts before every digit, so the entries sort
            # as their keys do: "a1" < "a10" < "a2".
            coeffs.sort()
            roots.append('{\n      "coeffs": ' + _nest(coeffs, pad, "{}") + "\n    }")
    except KeyError as exc:
        raise RootSystemError(f"unknown simple-root label {exc.args[0]!r}") from None
    return (
        '{\n  "colors": '
        + _nest(colors, "  ")
        + ',\n  "root_system": {\n    "components": '
        + _nest(components, "    ")
        + '\n  },\n  "spherical_roots": '
        + _nest(roots, "  ")
        + "\n}\n"
    )


def loads(text: str) -> SphericalSystem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: arrays or objects nested too deeply") from None
    except ValueError:
        # The only other ValueError json raises: the interpreter's limit on
        # the digits of an int it converts from a string.
        raise DocumentError("invalid JSON: integer literal has too many digits") from None
    return document_to_system(doc)
