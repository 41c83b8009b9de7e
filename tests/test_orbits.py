from __future__ import annotations

from pathlib import Path

import pytest

from wondersys import emit_graph, orbit_poset, poset_of_rank
from wondersys.catalog import catalog_entry
from wondersys.orbits import MAX_ORBIT_RANK

GOLDEN = Path(__file__).parent / "data" / "orbit_r2.dot"


class TestOrbitPoset:
    def test_rank_zero(self):
        p = poset_of_rank(0)
        assert len(p.nodes) == 1
        assert len(p.edges) == 0

    def test_rank_two(self):
        p = poset_of_rank(2)
        assert len(p.nodes) == 4
        assert len(p.edges) == 4

    def test_rank_three(self):
        p = poset_of_rank(3)
        assert len(p.nodes) == 8
        assert len(p.edges) == 12

    @pytest.mark.parametrize("r", range(11))
    def test_counts_and_extrema(self, r):
        p = poset_of_rank(r)
        assert len(p.nodes) == 2**r
        assert len(p.edges) == (r * 2 ** (r - 1) if r else 0)
        sources = set(p.nodes) - {b for _, b in p.edges}
        sinks = set(p.nodes) - {a for a, _ in p.edges}
        assert sources == {frozenset()}
        assert sinks == {frozenset(range(r))}

    def test_rank_above_the_limit_is_rejected(self):
        assert MAX_ORBIT_RANK == 16
        with pytest.raises(ValueError, match="rank 17 exceeds the limit 16"):
            poset_of_rank(MAX_ORBIT_RANK + 1)

    def test_negative_rank_is_rejected(self):
        with pytest.raises(ValueError, match="^orbit poset rank -1 is negative$"):
            poset_of_rank(-1)

    def test_from_system(self):
        p = orbit_poset(catalog_entry("group-a1a1").system)
        assert p.rank == 2
        assert p.boundary_rank(frozenset()) == 2
        assert p.boundary_rank(frozenset({0, 1})) == 0


class TestEmitGraph:
    def test_rank_zero_graph(self):
        text = emit_graph(poset_of_rank(0))
        assert '"{}"' in text
        assert "->" not in text

    def test_rank_one_graph(self):
        text = emit_graph(poset_of_rank(1))
        assert '"{}" -> "{s1}";' in text

    def test_golden_rank_two(self):
        assert emit_graph(poset_of_rank(2)) == GOLDEN.read_text()

    def test_deterministic(self):
        a = emit_graph(poset_of_rank(4))
        b = emit_graph(poset_of_rank(4))
        assert a == b
