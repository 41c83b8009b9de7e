"""One digest over every observable output, to show that two trees behave alike.

Run from the repository root with the package under test on the path:

    PYTHONPATH=src python3 tests/outputs_digest.py

It prints the number of results and one SHA-256 over all of them, in a fixed
order: violation texts, positive roots, `dumps` of the system and of each of
its coatom localizations, distinguished witnesses, critical entries
(critical and oracle, with `failing_subset`), DOT for ranks 0-12, and the
CLI's exit code, stdout and stderr for every verb in both formats on every
catalog entry, on generated documents and on malformed-JSON files.  The
inputs are the catalog, `random_systems(5, 600, 8)`, the mutation cases,
the benchmark corpora for seeds 301-302 (read from `perfbench/corpus.py`)
and the writer's edge cases (`documentoracle.writer_edge_cases`, whose
color ids are all strings).  It uses only public names exported by
`wondersys`, so it runs unchanged against another tree that has them.
This file is a script, not a test module.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402
from documentoracle import writer_edge_cases  # noqa: E402
from mutations import mutation_cases  # noqa: E402
from randsys import random_systems  # noqa: E402
from wondersys import (  # noqa: E402
    OrbitPoset,
    critical_roots,
    critical_roots_oracle,
    distinguished_elements,
    dumps,
    emit_graph,
    loads,
    localize,
    positive_roots,
    validate_system,
)
from wondersys.catalog import catalog_entries  # noqa: E402
from wondersys.cli import main  # noqa: E402

SEEDS = (301, 302)
ORACLE_MAX_RANK = 8
DOT_MAX_RANK = 12

MALFORMED_JSON = (
    "",
    "{oops",
    "{",
    "[1, 2",
    '{"root_system": }',
    '{\n  "colors": [],\n}',
    "nul",
    '{"a": 1} trailing',
)
MALFORMED_DOCUMENTS = (
    "[1, 2]",
    "{}",
    '{"root_system": {"components": {}}}',
    '{"root_system": {"components": [{"series": "A"}]}}',
    '{"root_system": {"components": [{"series": "A", "rank": -1000000000}, '
    '{"series": "A", "rank": 1000000000}]}}',
    '{"root_system": {"components": [{"series": "A", "rank": 1}]}, "spherical_roots": {}}',
    '{"root_system": {"components": [{"series": "A", "rank": 1}]}, "colors": [3]}',
    '{"root_system": {"components": [{"series": "A", "rank": 1}]}, '
    '"colors": [{"moved_by": ["a1"], "phi": []}]}',
    '{"root_system": {"components": [{"series": "A", "rank": 1}]}, '
    '"colors": [{"id": "D", "moved_by": [], "phi": []}]}',
    '{"root_system": {"components": [{"series": "A", "rank": 1}]}, '
    '"spherical_roots": [{"coeffs": {"a1": 1}}], '
    '"colors": [{"id": "D", "moved_by": ["a1"], "phi": [true]}]}',
)


def _systems():
    for entry in catalog_entries():
        yield entry.system
    yield from random_systems(5, 600, 8)
    for _, system, _ in mutation_cases():
        yield system
    for seed in SEEDS:
        for make in (corpus.batch_small, corpus.wide_sums, corpus.big_components):
            for case in make(seed):
                yield loads(case.text)
    for _, system in writer_edge_cases():
        yield system


def _entries(report) -> list:
    return [
        (
            str(e.root),
            e.distinguished,
            e.critical,
            e.vacuous,
            None if e.failing_subset is None else sorted(e.failing_subset),
        )
        for e in report.entries
    ]


def _dumps(system) -> str:
    try:
        return dumps(system)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _system_results(system):
    report = validate_system(system)
    yield "violations", [str(v) for v in report.violations]
    yield "positive_roots", sorted(map(str, positive_roots(system.rs)))
    yield "dumps", _dumps(system)
    labels = frozenset(system.rs.simple_roots)
    for lab in system.rs.simple_roots:
        yield "coatom_dumps", lab, _dumps(localize(system, labels - {lab}))
    if not report.ok:
        return
    witnesses = distinguished_elements(system).distinguished
    yield "distinguished", [(str(w.root), w.condition, w.witness) for w in witnesses]
    yield "critical", _entries(critical_roots(system))
    if system.rs.rank <= ORACLE_MAX_RANK:
        yield "oracle", _entries(critical_roots_oracle(system))


def _cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return argv, code, out.getvalue(), err.getvalue()


def _cli_runs(source: str, labels) -> list:
    half = ",".join(labels[: max(1, len(labels) // 2)])
    verbs = [
        ["validate", source],
        ["rigidity", source],
        ["critical", source],
        ["critical", source, "--oracle"],
        ["localize", source, "--subset", half],
        ["localize", source, "--subset", ","],
        ["localize", source, "--subset", "a99"],
        ["orbits", source],
    ]
    runs = []
    for fmt in ("text", "json"):
        for argv in verbs:
            runs.append(_cli(["--format", fmt] + argv))
        result = _cli(["--format", fmt, "orbits", source, "--dot", "poset.dot"])
        dot = Path("poset.dot")
        runs.append(result + (dot.read_text(encoding="utf-8") if dot.exists() else None,))
        if dot.exists():
            dot.unlink()
    return runs


def _cli_results():
    entries = catalog_entries()
    for fmt in ("text", "json"):
        yield "cli", _cli(["--format", fmt, "catalog", "list"])
        yield "cli", _cli(["--format", fmt, "catalog", "show", "nope"])
        yield "cli", _cli(["--format", fmt, "validate", "no-such-input"])
        for entry in entries:
            yield "cli", _cli(["--format", fmt, "catalog", "show", entry.name])
    for entry in entries:
        for run in _cli_runs(entry.name, entry.system.rs.simple_roots):
            yield "cli", run
    documents = [op.doc for seed in SEEDS for op in corpus.cli_mix(seed) if op.doc]
    documents += list(MALFORMED_JSON) + list(MALFORMED_DOCUMENTS)
    for k, text in enumerate(documents):
        name = f"doc-{k}.json"
        Path(name).write_text(text, encoding="utf-8")
        for fmt in ("text", "json"):
            for verb in ("validate", "rigidity", "critical", "orbits"):
                yield "cli", _cli(["--format", fmt, verb, name])


def main_digest() -> None:
    digest = hashlib.sha256()
    count = 0

    def add(result) -> None:
        nonlocal count
        digest.update(repr(result).encode("utf-8") + b"\n")
        count += 1

    for system in _systems():
        for result in _system_results(system):
            add(result)
    for r in range(DOT_MAX_RANK + 1):
        add(("dot", r, emit_graph(OrbitPoset(r))))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for result in _cli_results():
                add(result)
        finally:
            os.chdir(home)
    print(f"{count} results sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main_digest()
