"""Command-line front end.

Verbs: validate, localize, rigidity, critical, orbits, catalog.  Input is
a spherical-system document path or a built-in catalog name.  Exit codes:
0 success, 1 validation failure, 2 malformed input or arguments, checked in
that order: the input is read, then validated (by every verb but `validate`)
before a verb in `_VERBS` reads its own arguments.  Any other exception is
an internal error: it is reported as `internal error: <Type>: <message>`
(on stderr, or as the JSON error envelope) and exits 3.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from .catalog import CATALOG, catalog_entry
from .localize import localize
from .orbits import emit_graph, orbit_poset
from .rigidity import critical_roots, critical_roots_oracle, distinguished_elements
from .rootlat import RootSystemError, _label_key
from .serialize import DocumentError, dumps, loads
from .sphsys import SphericalSystem, ValidationReport, validate_system

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_system(source: str) -> SphericalSystem:
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read {source}: {exc}", EXIT_USAGE)
        try:
            return loads(text)
        except DocumentError as exc:
            raise CliError(f"{source}: {exc}", EXIT_USAGE)
    try:
        return catalog_entry(source).system
    except KeyError:
        raise CliError(
            f"{source!r} is neither an existing file nor a catalog entry", EXIT_USAGE
        )


def _invalid_text(report: ValidationReport) -> str:
    return "\n".join(["invalid"] + [f"violation {v}" for v in report.violations])


def _input_system(args) -> SphericalSystem:
    """The verb's input; for every verb but `validate` an invalid system exits 1."""
    system = _load_system(args.input)
    if args.verb != "validate":
        report = validate_system(system)
        if not report.ok:
            raise CliError(_invalid_text(report), EXIT_INVALID)
    return system


def _document(system: SphericalSystem, args, **payload) -> tuple:
    """A system printed as its document, or put under "system" in JSON."""
    if args.format == "json":
        return EXIT_OK, "", dict(payload, system=json.loads(dumps(system)))
    return EXIT_OK, dumps(system).rstrip("\n"), {}


def _validate(system: SphericalSystem, args) -> tuple:
    report = validate_system(system)
    if report.ok:
        return EXIT_OK, "ok", {"ok": True, "violations": []}
    violations = [{"axiom": v.axiom, "message": v.message} for v in report.violations]
    return EXIT_INVALID, _invalid_text(report), {"ok": False, "violations": violations}


def _localize(system: SphericalSystem, args) -> tuple:
    labels = [part.strip() for part in args.subset.split(",") if part.strip()]
    if not labels:
        raise CliError("--subset must list at least one simple root", EXIT_USAGE)
    try:
        sub = localize(system, labels)
    except RootSystemError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    return _document(sub, args)


def _rigidity(system: SphericalSystem, args) -> tuple:
    report = distinguished_elements(system)
    lines = [f"rigid: {'true' if report.rigid else 'false'}"]
    payload = {"rigid": report.rigid, "distinguished": []}
    for w in report.distinguished:
        idx = system.psi_index(w.root)
        lines.append(
            f"distinguished: s{idx + 1} = {w.root} (condition {w.condition}: {w.witness})"
        )
        payload["distinguished"].append(
            {"index": idx, "root": str(w.root), "condition": w.condition, "witness": w.witness}
        )
    return EXIT_OK, "\n".join(lines), payload


def _critical(system: SphericalSystem, args) -> tuple:
    compute = critical_roots_oracle if args.oracle else critical_roots
    try:
        report = compute(system)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    lines = []
    payload = {"oracle": bool(args.oracle), "entries": []}
    for i, e in enumerate(report.entries):
        failing = sorted(e.failing_subset or (), key=_label_key)
        if e.distinguished:
            verdict = "distinguished (not critical)"
        elif e.critical and e.vacuous:
            verdict = "critical (vacuously: no admissible proper subsets)"
        elif e.critical:
            verdict = "critical"
        else:
            verdict = f"not critical (not distinguished at {{{','.join(failing)}}})"
        lines.append(f"s{i + 1} = {e.root}: {verdict}")
        payload["entries"].append(
            {
                "index": i,
                "root": str(e.root),
                "distinguished": e.distinguished,
                "critical": e.critical,
                "vacuous": e.vacuous,
                "failing_subset": failing or None,
            }
        )
    if not report.entries:
        lines.append("no spherical roots")
    return EXIT_OK, "\n".join(lines), payload


def _orbits(system: SphericalSystem, args) -> tuple:
    try:
        poset = orbit_poset(system)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    # The Boolean lattice of rank r has 2^r nodes and r * 2^(r-1) covers.
    rank = poset.rank
    nodes, edges = 1 << rank, (rank << rank) >> 1
    lines = [f"rank: {rank}", f"nodes: {nodes}", f"edges: {edges}"]
    payload: Dict[str, Any] = {"rank": rank, "nodes": nodes, "edges": edges, "dot_path": None}
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(emit_graph(poset))
        except OSError as exc:
            raise CliError(f"cannot write {args.dot}: {exc}", EXIT_USAGE)
        lines.append(f"dot: {args.dot}")
        payload["dot_path"] = args.dot
    return EXIT_OK, "\n".join(lines), payload


def _catalog(args) -> tuple:
    if args.action == "list":
        # Names and descriptions are read off the table; no system is built.
        rows = [(name, row[0]) for name, row in CATALOG.items()]
        lines = [f"{name}: {description}" for name, description in rows]
        payload = {"entries": [{"name": name, "description": text} for name, text in rows]}
        return EXIT_OK, "\n".join(lines), payload
    try:
        entry = catalog_entry(args.name)
    except KeyError as exc:
        raise CliError(str(exc.args[0]), EXIT_USAGE)
    return _document(entry.system, args, name=entry.name)


# The verbs that take an input, in the order `--help` lists them (before
# `catalog`): verb -> (help text, function of the system and the arguments).
_VERBS = {
    "validate": ("check the axioms of a spherical system", _validate),
    "localize": ("localize at a subset of simple roots", _localize),
    "rigidity": ("list distinguished spherical roots", _rigidity),
    "critical": ("per-root criticality report", _critical),
    "orbits": ("orbit poset statistics and DOT output", _orbits),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wondersys",
        description="Combinatorics of spherical systems: validation, "
        "localization, rigidity, criticality and orbit posets.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, (help_text, _) in _VERBS.items():
        verbs[verb] = sub.add_parser(verb, help=help_text)
        verbs[verb].add_argument("input", help="document path or catalog name")
    verbs["localize"].add_argument(
        "--subset", required=True, help="comma-separated simple-root labels"
    )
    verbs["critical"].add_argument(
        "--oracle",
        action="store_true",
        help="enumerate every admissible subset instead of only the maximal ones",
    )
    verbs["orbits"].add_argument("--dot", metavar="PATH", help="write the poset as a DOT digraph")

    p = sub.add_parser("catalog", help="built-in regression systems")
    cat_sub = p.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list", help="list catalog entries")
    show = cat_sub.add_parser("show", help="emit one catalog entry as a document")
    show.add_argument("name")

    return parser


def _error(fmt: str, message: str, code: int) -> int:
    """Report an error in the `--format` fmt and return its exit code.  In
    text, an invalid system's violations go to stdout and every other error
    to stderr; in JSON, each is the envelope {"ok": false, "error": message}."""
    if fmt == "json":
        print(json.dumps({"ok": False, "error": message}, sort_keys=True))
    else:
        print(message, file=sys.stdout if code == EXIT_INVALID else sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.verb == "catalog":
            code, text, payload = _catalog(args)
        else:
            code, text, payload = _VERBS[args.verb][1](_input_system(args), args)
    except CliError as exc:
        return _error(args.format, str(exc), exc.code)
    except Exception as exc:
        return _error(args.format, f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL)
    if args.format == "json":
        envelope = {"command": args.verb, "ok": code == EXIT_OK, **payload}
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
