from __future__ import annotations

import ast
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wondersys import (
    DocumentError,
    RootSystem,
    RootSystemError,
    SphericalSystem,
    detect_subdiagram_type,
    dumps,
    loads,
    localize,
    validate_system,
)
from wondersys.catalog import catalog_entries, catalog_entry
import wondersys.cli
from wondersys.cli import main

from randsys import colored_flag, direct_sum


@pytest.fixture
def p1_path(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(dumps(catalog_entry("p1").system))
    return str(path)


def _run(fmt, argv, capsys):
    """Exit code and error text of a failing run, from stderr or the JSON envelope."""
    code = main(["--format", fmt] + argv)
    out, err = capsys.readouterr()
    if fmt == "json":
        payload = json.loads(out)
        assert payload["ok"] is False and err == ""
        return code, payload["error"]
    assert out == ""
    return code, err.rstrip("\n")


VERBS = ["validate", "localize", "rigidity", "critical", "orbits", "catalog"]


class TestUnknownLabelText:
    """Every entry point that takes simple-root labels names one outside the
    system with the same text."""

    @pytest.mark.parametrize("entry", [
        "localize", "induced", "detect_subdiagram_type", "index", "column", "half_norm",
        "cli-text", "cli-json",
    ])
    def test_one_text(self, entry, p1_path, capsys):
        rs = catalog_entry("p1").system.rs
        calls = {
            "localize": lambda: localize(catalog_entry("p1").system, {"a1", "b7"}),
            "induced": lambda: rs.induced({"a1", "b7"}),
            "detect_subdiagram_type": lambda: detect_subdiagram_type(rs, ["a1", "b7"]),
            "index": lambda: rs.index("b7"),
            "column": lambda: rs.column("b7"),
            "half_norm": lambda: rs.half_norm("b7"),
        }
        if entry in calls:
            with pytest.raises(RootSystemError) as raised:
                calls[entry]()
            text = str(raised.value)
        else:
            code, text = _run(entry[4:], ["localize", p1_path, "--subset", "b7"], capsys)
            assert code == 2
        assert text == "unknown simple-root label 'b7'"


class TestArgparseSurface:
    """`--help` and argparse's usage errors.  Help text is not pinned
    verbatim, since its layout varies between Python versions."""

    def test_help_lists_the_verbs_in_order(self, capsys):
        assert main(["--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: wondersys") and err == ""
        assert "{" + ",".join(VERBS) + "}" in out
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ")]
        assert [word for word in listed if word in VERBS] == VERBS

    @pytest.mark.parametrize(
        "argv", [[verb] for verb in VERBS] + [["catalog", "list"], ["catalog", "show"]]
    )
    def test_each_verb_has_help(self, argv, capsys):
        assert main(argv + ["--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: wondersys {' '.join(argv)} ") and err == ""

    def test_help_through_the_module(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        child = subprocess.run(
            [sys.executable, "-m", "wondersys.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0 and child.stderr == ""
        assert "{" + ",".join(VERBS) + "}" in child.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate", "p1"],
            ["localize", "p1"],
            ["--format", "xml", "validate", "p1"],
            ["orbits", "p1", "--dot"],
        ],
    )
    def test_usage_errors_exit_two(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: wondersys")


class TestValidate:
    def test_valid_file(self, p1_path, capsys):
        assert main(["validate", p1_path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_catalog_name_as_input(self, capsys):
        assert main(["validate", "group-a1a1"]) == 0

    def test_invalid_system_exits_one(self, tmp_path, capsys):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [{"coeffs": {"a1": 1}}],
            "colors": [],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "violation P1" in out

    @staticmethod
    def _validate_counting_half_norms(monkeypatch, path) -> tuple:
        """Exit code of `validate` on the file and the calls it made to
        `RootSystem.half_norm`, which only BASE's pairwise loop makes."""
        calls = []
        half_norm = RootSystem.half_norm

        def counted(rs, label):
            calls.append(label)
            return half_norm(rs, label)

        monkeypatch.setattr(RootSystem, "half_norm", counted)
        code = main(["--format", "json", "validate", str(path)])
        return code, len(calls)

    def test_many_spherical_roots_finish_in_linear_time(self, tmp_path, capsys, monkeypatch):
        # A1 with 20,000 copies of 2*a1 (about 0.5 MB): more roots than the
        # rank break BASE at once, and no pairwise loop runs over them.  The
        # work is counted, not timed: the loop asks for a half-norm per root.
        def document(n):
            return {
                "root_system": {"components": [{"series": "A", "rank": 1}]},
                "spherical_roots": [{"coeffs": {"a1": 2}}] * n,
                "colors": [{"id": "D", "moved_by": ["a1"], "phi": [1] * n}],
            }

        # With no more roots than the rank, the pairwise loop runs and counts.
        path = tmp_path / "one.json"
        path.write_text(json.dumps(document(1)))
        assert self._validate_counting_half_norms(monkeypatch, path)[1] > 0
        capsys.readouterr()
        n = 20000
        path = tmp_path / "many.json"
        path.write_text(json.dumps(document(n)))
        code, calls = self._validate_counting_half_norms(monkeypatch, path)
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert code == 1
        assert {v["axiom"] for v in violations} == {"BASE", "P1"}
        assert {"axiom": "BASE", "message": f"{n} spherical roots exceed the rank 1"} in violations
        assert calls == 0

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["validate", str(path)]) == 2

    def test_malformed_json_message(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"{path}: invalid JSON at line 1: "
            "Expecting property name enclosed in double quotes\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_string_moved_by_exits_two(self, tmp_path, capsys, fmt):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [{"coeffs": {"a1": 1}}],
            "colors": [{"id": "D", "moved_by": [["a1"]], "phi": [1]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert _run(fmt, ["validate", str(path)], capsys) == (
            2,
            f"{path}: colors[0] (D): unknown label ['a1']",
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("series", [[], {}], ids=["list", "object"])
    def test_unhashable_series_exits_two(self, tmp_path, capsys, fmt, series):
        doc = {"root_system": {"components": [{"series": series, "rank": 1}]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert _run(fmt, ["validate", str(path)], capsys) == (
            2,
            f"{path}: root_system.components[0]: invalid series/rank {series!r}/1",
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "color, message",
        [
            (
                {"id": "D", "moved_by": ["a1"], "phi": ["0.5"]},
                "colors[0] (D).phi[0]: cannot parse rational '0.5'",
            ),
            (
                {"id": "D", "moved_by": ["a1", "a1"], "phi": [1]},
                "colors[0] (D): moved_by lists 'a1' twice",
            ),
            (
                {"id": "D", "moved_by": ["a1"], "phi": [1], "labels": ["a1"]},
                "colors[0] (D): unknown field 'labels'",
            ),
        ],
        ids=["decimal-phi", "repeated-moved-by", "unknown-color-key"],
    )
    def test_refused_spelling_exits_two(self, tmp_path, capsys, fmt, color, message):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [{"coeffs": {"a1": 1}}],
            "colors": [color],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert _run(fmt, ["validate", str(path)], capsys) == (2, f"{path}: {message}")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "fields, key",
        [
            ('"spherical_roots": [{"coeffs": {"a1": 1, "a1": 2}}], "colors": []', "a1"),
            (
                '"spherical_roots": [{"coeffs": {"a1": 1}}], '
                '"colors": [{"id": "D", "moved_by": ["a1"], "phi": [1], "phi": [2]}]',
                "phi",
            ),
            ('"spherical_roots": [], "colors": [], "colors": []', "colors"),
        ],
        ids=["coeffs", "color", "top-level"],
    )
    def test_duplicate_key_exits_two(self, tmp_path, capsys, fmt, fields, key):
        path = tmp_path / "bad.json"
        path.write_text('{"root_system": {"components": [{"series": "A", "rank": 1}]}, ' + fields + "}")
        assert _run(fmt, ["validate", str(path)], capsys) == (2, f"{path}: duplicate key {key!r}")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_misspelled_field_exits_two(self, tmp_path, capsys, fmt):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_root": [{"coeffs": {"a1": 1}}],
            "colors": [],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert _run(fmt, ["validate", str(path)], capsys) == (
            2,
            f"{path}: unknown field 'spherical_root'",
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_document_not_utf8_exits_two(self, tmp_path, capsys, fmt):
        path = tmp_path / "bad.json"
        path.write_bytes(bytes([0xFF, 0xFE, 0x7B, 0x7D]))
        assert _run(fmt, ["validate", str(path)], capsys) == (
            2,
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte",
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_directory_as_document_exits_two(self, tmp_path, capsys, fmt):
        assert _run(fmt, ["validate", str(tmp_path)], capsys) == (
            2,
            f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'",
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100_000, "invalid JSON: arrays or objects nested too deeply"),
            ("[" + "1" * 5000 + "]", "invalid JSON: integer literal has too many digits"),
        ],
        ids=["nested", "long-int"],
    )
    def test_json_past_the_parser_limits_exits_two(self, tmp_path, capsys, fmt, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert _run(fmt, ["validate", str(path)], capsys) == (2, f"{path}: {message}")

    def test_unknown_input_exits_two(self, capsys):
        assert main(["validate", "definitely-not-there"]) == 2

    def test_unknown_verb_exits_two(self, capsys):
        assert main(["frobnicate", "p1"]) == 2


class TestRigidity:
    def test_p1_report(self, p1_path, capsys):
        assert main(["rigidity", p1_path]) == 0
        out = capsys.readouterr().out
        assert "rigid: false" in out
        assert "s1 = a1 (condition 1" in out

    def test_rigid_system(self, capsys):
        assert main(["rigidity", "group-a1a1"]) == 0
        assert "rigid: true" in capsys.readouterr().out

    def test_invalid_system_exits_one(self, tmp_path, capsys):
        doc = {
            "root_system": {"components": [{"series": "A", "rank": 1}]},
            "spherical_roots": [{"coeffs": {"a1": 1}}],
            "colors": [],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["rigidity", str(path)]) == 1


class TestLocalize:
    def test_group_projection(self, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text(dumps(catalog_entry("group-a1a1").system))
        assert main(["localize", str(path), "--subset", "a1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spherical_roots"] == [{"coeffs": {"a1": 1}}]
        assert [c["phi"] for c in doc["colors"]] == [[1], [1]]

    def test_unknown_subset_label(self, capsys):
        assert main(["localize", "group-a1a1", "--subset", "a9"]) == 2

    def test_prints_the_serialized_document(self, capsys):
        assert main(["localize", "group-a1a1", "--subset", "a2"]) == 0
        sub = localize(catalog_entry("group-a1a1").system, {"a2"})
        assert capsys.readouterr().out == dumps(sub)

    def test_empty_subset(self, capsys):
        assert _run("text", ["localize", "group-a1a1", "--subset", ","], capsys) == (
            2,
            "--subset must list at least one simple root",
        )


class TestCritical:
    def test_group_critical(self, capsys):
        assert main(["critical", "group-a1a1"]) == 0
        out = capsys.readouterr().out
        assert "s1 = a1: critical" in out

    def test_oracle_flag_agrees(self, capsys):
        assert main(["critical", "group-a1a1"]) == 0
        fast = capsys.readouterr().out
        assert main(["critical", "group-a1a1", "--oracle"]) == 0
        slow = capsys.readouterr().out
        assert fast == slow

    def test_distinguished_line(self, capsys):
        assert main(["critical", "p1"]) == 0
        assert capsys.readouterr().out == "s1 = a1: distinguished (not critical)\n"

    def test_no_spherical_roots_line(self, capsys):
        assert main(["critical", "flag-a2"]) == 0
        assert capsys.readouterr().out == "no spherical roots\n"

    def test_vacuous_marker(self, capsys):
        assert main(["critical", "a2-full-support"]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_failing_subset_order_agrees_at_rank_ten(self, tmp_path, capsys):
        flags = [colored_flag("A", 1, [1])] * 8
        system = direct_sum(flags + [catalog_entry("group-a1a1").system])
        path = tmp_path / "rank10.json"
        path.write_text(dumps(system))
        expected = ["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a9", "a10"]
        assert main(["critical", str(path)]) == 0
        text = capsys.readouterr().out
        assert f"s1 = a9: not critical (not distinguished at {{{','.join(expected)}}})" in text
        assert main(["--format", "json", "critical", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["failing_subset"] for e in payload["entries"]] == [expected, expected]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oracle_above_the_limit_exits_two(self, tmp_path, capsys, fmt):
        # s1 = a1 has 25 colored labels outside its base.
        flags = [colored_flag("A", 1, [1])] * 2
        system = direct_sum([catalog_entry("group-a1a1").system] * 12 + flags)
        path = tmp_path / "rank26.json"
        path.write_text(dumps(system))
        assert _run(fmt, ["critical", str(path), "--oracle"], capsys) == (
            2,
            "oracle search at s1: 25 simple roots outside its base exceed the limit 24",
        )
        assert main(["critical", str(path)]) == 0
        assert "s1 = a1: not critical" in capsys.readouterr().out


class TestOrbits:
    def test_counts_and_dot(self, tmp_path, capsys):
        dot = tmp_path / "poset.dot"
        assert main(["orbits", "group-a1a1", "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 4" in out and "edges: 4" in out
        assert dot.read_text().startswith("digraph orbits {")

    def test_rank_above_the_limit_exits_two(self, tmp_path, capsys):
        group, p1 = catalog_entry("group-a1a1").system, catalog_entry("p1").system
        system = direct_sum([group] * 8 + [p1])
        path = tmp_path / "rank17.json"
        path.write_text(dumps(system))
        dot = tmp_path / "poset.dot"
        assert main(["orbits", str(path), "--dot", str(dot)]) == 2
        assert "rank 17 exceeds the limit 16" in capsys.readouterr().err
        assert main(["--format", "json", "orbits", str(path)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "rank 17 exceeds the limit 16" in payload["error"]
        assert not dot.exists()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_dot_into_a_missing_directory_exits_two(self, tmp_path, capsys, fmt):
        dot = tmp_path / "missing" / "poset.dot"
        assert _run(fmt, ["orbits", "group-a1a1", "--dot", str(dot)], capsys) == (
            2,
            f"cannot write {dot}: [Errno 2] No such file or directory: '{dot}'",
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_dot_at_a_directory_exits_two(self, tmp_path, capsys, fmt):
        assert _run(fmt, ["orbits", "group-a1a1", "--dot", str(tmp_path)], capsys) == (
            2,
            f"cannot write {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'",
        )

    def test_rank_twelve_counts_and_dot(self, tmp_path, capsys):
        path = tmp_path / "rank12.json"
        path.write_text(dumps(direct_sum([catalog_entry("group-a1a1").system] * 6)))
        dot = tmp_path / "poset.dot"
        assert main(["--format", "json", "orbits", str(path), "--dot", str(dot)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["rank"], payload["nodes"], payload["edges"]) == (12, 4096, 24576)
        assert payload["dot_path"] == str(dot)
        lines = dot.read_text().splitlines()
        assert sum("[boundary_rank=" in line for line in lines) == 4096
        assert sum(" -> " in line for line in lines) == 24576


    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rank_sixteen_counts_without_building_the_lattice(self, tmp_path, capsys, fmt):
        path = tmp_path / "rank16.json"
        path.write_text(dumps(direct_sum([catalog_entry("p1").system] * 16)))
        tracemalloc.start()
        try:
            assert main(["--format", fmt, "orbits", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            assert (payload["rank"], payload["nodes"], payload["edges"]) == (16, 65536, 524288)
        else:
            assert out == "rank: 16\nnodes: 65536\nedges: 524288\n"
        # The lattice itself, 2^16 frozensets and 16 * 2^15 edges, would
        # take tens of megabytes.
        assert peak < 2 * 1024 * 1024

    def test_rank_zero_counts(self, capsys):
        assert main(["orbits", "flag-a2"]) == 0
        assert capsys.readouterr().out == "rank: 0\nnodes: 1\nedges: 0\n"
        assert main(["--format", "json", "orbits", "flag-a2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["rank"], payload["nodes"], payload["edges"]) == (0, 1, 0)


class TestCatalogVerb:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        for entry in catalog_entries():
            assert entry.name in out

    def test_list_builds_no_system(self, capsys, monkeypatch):
        entries = catalog_entries()
        text = "".join(f"{e.name}: {e.description}\n" for e in entries)
        payload = {
            "command": "catalog",
            "ok": True,
            "entries": [{"name": e.name, "description": e.description} for e in entries],
        }
        built = []
        init = SphericalSystem.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(SphericalSystem, "__init__", counting_init)
        assert main(["catalog", "list"]) == 0
        assert capsys.readouterr().out == text
        assert main(["--format", "json", "catalog", "list"]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert built == []
        # The counter sees a construction.
        catalog_entry("p1")
        assert len(built) == 1

    def test_show_round_trips(self, capsys):
        for entry in catalog_entries():
            assert main(["catalog", "show", entry.name]) == 0
            doc_text = capsys.readouterr().out
            assert loads(doc_text) == entry.system, entry.name

    def test_show_prints_the_serialized_document(self, capsys):
        for entry in catalog_entries():
            assert main(["catalog", "show", entry.name]) == 0
            assert capsys.readouterr().out == dumps(entry.system), entry.name

    def test_show_unknown(self, capsys):
        assert main(["catalog", "show", "nope"]) == 2


class TestJsonFormat:
    def test_validate_envelope(self, capsys):
        assert main(["--format", "json", "validate", "p1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"command": "validate", "ok": True, "violations": []}

    def test_rigidity_envelope(self, capsys):
        assert main(["--format", "json", "rigidity", "b2-short-sum"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rigid"] is False
        assert payload["distinguished"][0]["condition"] == 2

    def test_deterministic_output(self, capsys):
        assert main(["--format", "json", "critical", "group-a1a1"]) == 0
        first = capsys.readouterr().out
        assert main(["--format", "json", "critical", "group-a1a1"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "argv", [["localize", "group-a1a1", "--subset", "a1"], ["catalog", "show", "p1"]]
    )
    def test_only_the_printed_document_is_built(self, argv, capsys, monkeypatch):
        calls = []
        real = wondersys.cli.dumps

        def counted(system):
            calls.append(system)
            return real(system)

        monkeypatch.setattr(wondersys.cli, "dumps", counted)
        assert main(argv) == 0
        assert len(calls) == 1
        text = capsys.readouterr().out
        calls.clear()
        assert main(["--format", "json"] + argv) == 0
        assert len(calls) == 1
        payload = json.loads(capsys.readouterr().out)
        assert json.dumps(payload["system"], indent=2, sort_keys=True) + "\n" == text


class TestInternalError:
    """An exception other than `CliError` exits 3, distinct from an invalid
    system (1) and a malformed input (2), and is reported, not raised."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_an_unexpected_exception_exits_three(self, fmt, capsys, monkeypatch):
        def broken(system, args):
            raise RuntimeError("verb broke")

        help_text, _ = wondersys.cli._VERBS["rigidity"]
        monkeypatch.setitem(wondersys.cli._VERBS, "rigidity", (help_text, broken))
        assert wondersys.cli.EXIT_INTERNAL == 3
        assert _run(fmt, ["rigidity", "p1"], capsys) == (
            3, "internal error: RuntimeError: verb broke"
        )


class TestColdStart:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # Only the modules the import adds count, so what `site` loads first
        # on a given machine does not matter.
        code = (
            "import sys; before = set(sys.modules); import wondersys.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert child.returncode == 0, child.stderr
        loaded = set(child.stdout.split())
        assert "wondersys.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    @staticmethod
    def _private_readers(cls, home):
        """Where a package module other than `home` reads a private slot of cls."""
        private = {name for name in cls.__slots__ if name.startswith("_")}
        assert private
        package = Path(wondersys.cli.__file__).resolve().parent
        assert package.joinpath(home).exists()
        readers = []
        for path in sorted(package.glob("*.py")):
            if path.name == home:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and node.attr in private:
                    readers.append(f"{path.name}:{node.lineno} .{node.attr}")
        return readers

    def test_only_rootlat_reads_what_root_system_keeps_privately(self):
        # How RootSystem stores the Cartan matrix stays behind one module.
        assert self._private_readers(RootSystem, "rootlat.py") == []

    def test_only_sphsys_reads_what_spherical_system_keeps_privately(self):
        # How a system indexes its colors and simple spherical roots stays
        # behind the module that validates it.
        assert self._private_readers(SphericalSystem, "sphsys.py") == []


# Values an edit may put into a document: JSON scalars, among them names,
# labels and spellings the reader knows, and lists and objects of them.
_KEYS = ["a1", "a2", "a9", "id", "moved_by", "phi", "coeffs", "series", "rank", "components", "x"]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 66),
    st.sampled_from([10**20, 1.5, 0.0]),
    st.sampled_from(["", "x", "A", "B", "G", "a1", "a0", "a01", "1/2", "-3/2", "1/3", "é", " a1"]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3)
    ),
    max_leaves=4,
)


def _slots(node, out: list) -> list:
    """Every (list or object, index or key) below `node`, outermost first."""
    if isinstance(node, (dict, list)):
        for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
            out.append((node, key))
            _slots(child, out)
    return out


@st.composite
def edited_documents(draw) -> str:
    """A catalog document after one to three edits, each setting a field to
    a drawn value, renaming a key, repeating a list element or dropping a key."""
    doc = json.loads(dumps(draw(st.sampled_from(catalog_entries())).system))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        kinds = ["set", "rename", "drop"] if isinstance(node, dict) else ["set", "repeat"]
        kind = draw(st.sampled_from(kinds))
        if kind == "set":
            node[key] = draw(_VALUES)
        elif kind == "rename":
            node[draw(st.sampled_from(_KEYS))] = node.pop(key)
        elif kind == "repeat":
            node.insert(key, copy.deepcopy(node[key]))
        else:
            del node[key]
    return json.dumps(doc)


class TestEditedDocuments:
    """Every edited document is read into a system or refused with a
    DocumentError, and every verb exits 0, 1 or 2 on it."""

    @settings(max_examples=200, deadline=None)
    @given(edited_documents(), st.sampled_from(["text", "json"]))
    def test_every_verb_exits_zero_one_or_two(self, tmp_path_factory, text, fmt):
        base = tmp_path_factory.getbasetemp()
        path, dot = str(base / "edited.json"), str(base / "edited.dot")
        Path(path).write_text(text)
        try:
            system = loads(text)
        except DocumentError:
            system = None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if system is None:
                assert main(["--format", fmt, "validate", path]) == 2
                return
            first = system.rs.simple_roots[0] if system.rs.rank else "a1"
            codes = [
                main(["--format", fmt] + argv)
                for argv in (
                    ["validate", path],
                    ["localize", path, "--subset", first],
                    ["rigidity", path],
                    ["critical", path],
                    ["orbits", path, "--dot", dot],
                )
            ]
        assert codes[0] == (0 if validate_system(system).ok else 1)
        assert set(codes) <= {0, 1, 2}
