from __future__ import annotations

import re
import tracemalloc
from pathlib import Path

import pytest

from wondersys import OrbitPoset, emit_graph, orbit_poset
from wondersys.catalog import catalog_entry
from wondersys.orbits import MAX_ORBIT_RANK

from orbitoracle import oracle_dot, oracle_poset

GOLDEN = Path(__file__).parent / "data" / "orbit_r2.dot"
NODE_LINE = re.compile(r'  "(\{[^"]*\})" \[boundary_rank=(\d+)\];')


class TestOrbitPoset:
    def test_rank_zero(self):
        p = OrbitPoset(0)
        assert len(p.nodes) == 1
        assert len(p.edges) == 0

    def test_rank_two(self):
        p = OrbitPoset(2)
        assert len(p.nodes) == 4
        assert len(p.edges) == 4

    def test_rank_three(self):
        p = OrbitPoset(3)
        assert len(p.nodes) == 8
        assert len(p.edges) == 12

    @pytest.mark.parametrize("r", range(11))
    def test_counts_and_extrema(self, r):
        p = OrbitPoset(r)
        assert len(p.nodes) == 2**r
        assert len(p.edges) == (r * 2 ** (r - 1) if r else 0)
        sources = set(p.nodes) - {b for _, b in p.edges}
        sinks = set(p.nodes) - {a for a, _ in p.edges}
        assert sources == {frozenset()}
        assert sinks == {frozenset(range(r))}

    def test_rank_above_the_limit_is_rejected(self):
        assert MAX_ORBIT_RANK == 16
        with pytest.raises(ValueError, match="rank 17 exceeds the limit 16"):
            OrbitPoset(MAX_ORBIT_RANK + 1)

    def test_negative_rank_is_rejected(self):
        with pytest.raises(ValueError, match="^orbit poset rank -1 is negative$"):
            OrbitPoset(-1)

    @pytest.mark.parametrize(
        "rank, shown", [(True, "True"), (False, "False"), (2.0, "2.0"), ("3", "'3'"), (None, "None")]
    )
    def test_rank_that_is_not_an_int_is_rejected(self, rank, shown):
        message = f"orbit poset rank {shown} is not an int"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OrbitPoset(rank)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            emit_graph(OrbitPoset(rank))

    def test_from_system(self):
        p = orbit_poset(catalog_entry("group-a1a1").system)
        assert p.rank == 2


class TestEmitGraph:
    def test_rank_zero_graph(self):
        text = emit_graph(OrbitPoset(0))
        assert '"{}"' in text
        assert "->" not in text

    def test_rank_one_graph(self):
        text = emit_graph(OrbitPoset(1))
        assert '"{}" -> "{s1}";' in text

    def test_golden_rank_two(self):
        assert emit_graph(OrbitPoset(2)) == GOLDEN.read_text()

    def test_deterministic(self):
        a = emit_graph(OrbitPoset(4))
        b = emit_graph(OrbitPoset(4))
        assert a == b

    @pytest.mark.parametrize(
        "rank, message",
        [
            (17, "orbit poset rank 17 exceeds the limit 16"),
            (-1, "orbit poset rank -1 is negative"),
        ],
    )
    def test_rank_is_checked_before_anything_is_built(self, rank, message):
        # OrbitPoset refuses the rank before anything is built; a rank-17
        # label table alone would take megabytes.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                emit_graph(OrbitPoset(rank))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                OrbitPoset(rank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_rank_fourteen_order_by_sorting_parsed_lines(self):
        # Checks the documented order by sorting what the DOT says, without the
        # oracle: nodes by (size, label text), edges by (source position, target
        # label text), every edge a cover and every cover present once.
        r = 14
        lines = emit_graph(OrbitPoset(r)).splitlines()
        assert lines[0] == "digraph orbits {" and lines[-1] == "}"
        node_lines, edge_lines = lines[1 : 1 + 2**r], lines[1 + 2**r : -1]
        assert len(edge_lines) == r * 2 ** (r - 1)

        bit = {f"s{i + 1}": 1 << i for i in range(r)}
        nodes, mask = [], {}
        for line in node_lines:
            label, boundary = NODE_LINE.fullmatch(line).groups()
            parts = label[1:-1].split(",") if label != "{}" else []
            assert parts == sorted(parts) and int(boundary) == r - len(parts)
            nodes.append((len(parts), label))
            mask[label] = sum(bit[name] for name in parts)
        assert nodes == sorted(nodes) and len(set(mask.values())) == 2**r

        assert all(line[:3] == '  "' and line[-2:] == '";' for line in edge_lines)
        pairs = [line[3:-2].split('" -> "') for line in edge_lines]
        # t covers s exactly when t > s and they differ in one bit.
        covers = [(mask[source], mask[target]) for source, target in pairs]
        assert all(t > s and (t ^ s).bit_count() == 1 for s, t in covers)
        position = {label: i for i, (_, label) in enumerate(nodes)}
        edges = [(position[source], target) for source, target in pairs]
        assert edges == sorted(edges) and len(set(edges)) == len(edges)


class TestAgainstOracle:
    @pytest.mark.parametrize("r", range(13))
    def test_poset_in_order_and_dot_byte_identical(self, r):
        p = OrbitPoset(r)
        nodes, edges = oracle_poset(r)
        assert p.nodes == nodes and p.edges == edges
        first = emit_graph(p)
        # Emitted again after every other rank, descending then ascending.
        others = [k for k in (*range(12, -1, -1), *range(13)) if k != r]
        for k in others:
            emit_graph(OrbitPoset(k))
        assert first == emit_graph(p) == oracle_dot(r)

