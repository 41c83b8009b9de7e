"""JSON document format for spherical systems.

A document is a single object with `root_system`, `spherical_roots` and
`colors` fields.  Simple roots are labelled a1, a2, ... in the canonical
order of the components; functionals are listed in spherical-root order,
with halves written as "p/2" strings.  Each phi value is read straight into
its doubled int, one row at a time: the row pass doubles an int n to 2n in
place, and only the other values reach the rational parser, where "p/2"
gives p and "p/1" gives 2p; any other value or spelling is a parsing error.
Labels are checked against one set of the system's simple roots.  Parsing
errors name the offending field and label; a top-level field other than
those three (`FIELDS`), a key other than `components` in the root system,
`series` and `rank` in a component, `coeffs` in a spherical root and `id`,
`moved_by` and `phi` in a color, a root system of total rank above
MAX_RANK, a color id used twice, a label listed twice in one `moved_by`
and a key given twice in one JSON object (`json` would keep the last one)
are parsing errors too.

`loads` reads every document with one module-level `json.JSONDecoder`
holding the duplicate-key hook, built once at import, since `json.loads`
given a hook builds a new decoder on every call.  It keeps `json.loads`'s
prelude: `bytes` are decoded in the encoding `json.detect_encoding` finds,
and a `str` starting with U+FEFF is refused, as invalid JSON at line 1;
`bytes` that are not valid in that encoding are invalid JSON too, and the
message names the encoding.

`dumps` is the one writer.  It writes the document text in one pass over
the system, laid out as `json.dumps(doc, indent=2, sort_keys=True)` would
lay out the document `doc`: two-space indentation, keys in string order (so
`a10` precedes `a2` among a spherical root's coefficients), `moved_by` in
simple-root order and `[]` or `{}` for an empty list or object.  Labels and
numbers need no escaping; a color id, which `Color` requires to be a
non-empty `str`, goes through json's own string escaper.  Whoever wants the
document as a dict parses that text, as the CLI's JSON output does.
"""
from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii
from typing import Any, List

from .rootlat import (
    _LABELS,
    Functional,
    LatticeVector,
    RootSystemError,
    build_root_system,
)
from .sphsys import Color, SphericalSystem

SERIES_SET = set("ABCDEFG")
FIELDS = ("root_system", "spherical_roots", "colors")


class DocumentError(ValueError):
    """Malformed spherical-system document."""


# "p/q": an optional minus and ASCII digits over a denominator without a
# leading zero.
_RATIONAL = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)")


def _decode_twice(raw: Any, where: str, j: int) -> int:
    """Phi value `where[j]`, anything but an `int`, as its doubled int."""
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


def _unknown_field(obj: dict, known: tuple, where: str) -> DocumentError:
    """The error naming the first key of `obj` outside `known`, at `where`."""
    key = next(key for key in obj if key not in known)
    return DocumentError(f"{where}: unknown field {key!r}")


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice in it is a parsing error."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


# The one decoder `loads` reads every document with: `json.loads` given a
# hook would build a new decoder, and its scanner, on every call.
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def document_to_system(doc: Any) -> SphericalSystem:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    for key in doc:
        if key not in FIELDS:
            raise DocumentError(f"unknown field {key!r}")
    try:
        components = doc["root_system"]["components"]
    except (KeyError, TypeError):
        raise DocumentError("missing root_system.components") from None
    if not isinstance(components, list):
        raise DocumentError("root_system.components must be a list")
    # Every nested key is required, so an object with more keys has one unknown.
    if len(doc["root_system"]) != 1:
        raise _unknown_field(doc["root_system"], ("components",), "root_system")
    spec = []
    for k, comp in enumerate(components):
        if not isinstance(comp, dict) or "series" not in comp or "rank" not in comp:
            raise DocumentError(f"root_system.components[{k}]: need series and rank")
        if len(comp) != 2:
            raise _unknown_field(comp, ("series", "rank"), f"root_system.components[{k}]")
        series, rank = comp["series"], comp["rank"]
        # A list or object as the series is unhashable: test the type first.
        if (
            not isinstance(series, str) or series not in SERIES_SET
            or not isinstance(rank, int) or isinstance(rank, bool)
        ):
            raise DocumentError(
                f"root_system.components[{k}]: invalid series/rank {series!r}/{rank!r}"
            )
        spec.append((series, rank))
    try:
        rs = build_root_system(spec)
    except RootSystemError as exc:
        raise DocumentError(f"root_system: {exc}") from None
    labels = frozenset(rs.simple_roots)

    psi: List[LatticeVector] = []
    raw_roots = doc.get("spherical_roots", [])
    if not isinstance(raw_roots, list):
        raise DocumentError("spherical_roots must be a list")
    for k, raw in enumerate(raw_roots):
        if not isinstance(raw, dict) or not isinstance(raw.get("coeffs"), dict):
            raise DocumentError(f"spherical_roots[{k}]: need a coeffs object")
        if len(raw) != 1:
            raise _unknown_field(raw, ("coeffs",), f"spherical_roots[{k}]")
        coeffs = {}
        for lab, v in raw["coeffs"].items():
            if lab not in labels:
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
            if not isinstance(lab, str) or lab not in labels:
                raise DocumentError(f"colors[{k}] ({cid}): unknown label {lab!r}")
            if lab in seen:
                raise DocumentError(f"colors[{k}] ({cid}): moved_by lists {lab!r} twice")
            seen.add(lab)
        phi_raw = raw.get("phi")
        if not isinstance(phi_raw, list):
            raise DocumentError(f"colors[{k}] ({cid}): phi must be a list")
        if len(raw) != 3:
            raise _unknown_field(raw, ("id", "moved_by", "phi"), f"colors[{k}] ({cid})")
        if len(phi_raw) != len(psi):
            raise DocumentError(
                f"colors[{k}] ({cid}): phi has {len(phi_raw)} values for "
                f"{len(psi)} spherical roots"
            )
        phi = tuple([
            2 * v if type(v) is int else _decode_twice(v, f"colors[{k}] ({cid}).phi", j)
            for j, v in enumerate(phi_raw)
        ])
        colors.append(Color(cid, seen, Functional._of_twice(phi)))

    return SphericalSystem(rs, psi, colors)


def _nest(items: List[str], pad: str, brackets: str = "[]") -> str:
    """Written items as one indented JSON list (or, with brackets "{}", object)
    whose closing bracket sits at indentation `pad`."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


# The JSON string of each simple root's canonical label, by position.
_QUOTED = tuple(f'"{lab}"' for lab in _LABELS)


def dumps(system: SphericalSystem) -> str:
    """The document text, byte for byte what `json.dumps` writes for the
    document with `indent=2, sort_keys=True`, plus a newline.  A label
    outside the root system raises RootSystemError."""
    rs = system.rs
    index = rs.index
    names = dict(zip(rs.simple_roots, _QUOTED))
    components = [
        f'{{\n        "rank": {c.rank},\n        "series": "{c.series}"\n      }}'
        for c in rs.components
    ]
    pad = " " * 6
    colors = [
        '{\n      "id": %s,\n      "moved_by": %s,\n      "phi": %s\n    }'
        % (
            encode_basestring_ascii(d.id),
            _nest([names[lab] for lab in sorted(d.moved_by, key=index)], pad),
            _nest([f'"{t}/2"' if t & 1 else str(t >> 1) for t in d.phi.twice], pad),
        )
        for d in system.colors
    ]
    roots = []
    for sigma in system.psi:
        # `index` raises RootSystemError for a label outside the system.
        coeffs = [
            f"{names[lab] if lab in names else index(lab)}: {v}"
            for lab, v in sigma._coeffs.items()
        ]
        # The closing quote sorts before every digit, so the entries sort
        # as their keys do: "a1" < "a10" < "a2".
        coeffs.sort()
        roots.append('{\n      "coeffs": ' + _nest(coeffs, pad, "{}") + "\n    }")
    return (
        '{\n  "colors": '
        + _nest(colors, "  ")
        + ',\n  "root_system": {\n    "components": '
        + _nest(components, "    ")
        + '\n  },\n  "spherical_roots": '
        + _nest(roots, "  ")
        + "\n}\n"
    )


def loads(text: str | bytes) -> SphericalSystem:
    """The system a document's text describes; anything wrong with the
    text, as JSON or as a document, raises DocumentError."""
    try:
        # `json.loads`'s own prelude, in front of the shared decoder.
        if isinstance(text, str):
            if text.startswith("\ufeff"):
                raise json.JSONDecodeError(
                    "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
                )
        elif isinstance(text, (bytes, bytearray)):
            text = text.decode(json.detect_encoding(text), "surrogatepass")
        else:
            raise TypeError(
                "the JSON object must be str, bytes or bytearray, "
                f"not {text.__class__.__name__}"
            )
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: arrays or objects nested too deeply") from None
    except DocumentError:
        raise
    except UnicodeDecodeError as exc:
        # A ValueError too: caught before the int-digit limit below.
        raise DocumentError(
            f"invalid JSON: bytes not valid {exc.encoding}: {exc.reason} at offset {exc.start}"
        ) from None
    except ValueError:
        # The only other ValueError json raises: the interpreter's limit on
        # the digits of an int it converts from a string.
        raise DocumentError("invalid JSON: integer literal has too many digits") from None
    return document_to_system(doc)
