"""Tests for the simple-cycle enumerator."""

import numpy as np
import pytest

from repro.stencil.generic import clique_graph, cycle_graph, path_graph
from repro.stencil.grid import StencilGrid
from repro.stencil.subgraphs import (
    count_cycles_by_length,
    enumerate_odd_cycles,
    enumerate_simple_cycles,
)


def nx_cycle_count(graph, max_len):
    import networkx as nx

    from repro.stencil.generic import to_networkx

    return sum(
        1
        for c in nx.simple_cycles(to_networkx(graph), length_bound=max_len)
        if len(c) >= 3
    )


class TestEnumeration:
    def test_single_cycle_graph(self):
        cycles = list(enumerate_simple_cycles(cycle_graph(5), max_len=5))
        assert len(cycles) == 1
        assert sorted(cycles[0]) == [0, 1, 2, 3, 4]

    def test_cycle_reported_once_canonical(self):
        cycles = list(enumerate_simple_cycles(cycle_graph(4), max_len=6))
        assert len(cycles) == 1
        cycle = cycles[0]
        assert cycle[0] == 0  # rooted at min vertex
        assert cycle[1] < cycle[-1]  # canonical orientation

    def test_path_has_no_cycles(self):
        assert list(enumerate_simple_cycles(path_graph(6), max_len=6)) == []

    def test_k4_counts(self):
        # K4 has 4 triangles and 3 four-cycles.
        counts = count_cycles_by_length(clique_graph(4), max_len=4)
        assert counts == {3: 4, 4: 3}

    def test_max_len_respected(self):
        counts = count_cycles_by_length(clique_graph(5), max_len=3)
        assert set(counts) == {3}
        assert counts[3] == 10  # C(5,3) triangles

    def test_below_three_empty(self):
        assert list(enumerate_simple_cycles(clique_graph(3), max_len=2)) == []

    @pytest.mark.parametrize("max_len", [3, 4, 5])
    def test_matches_networkx_on_stencil(self, max_len):
        graph = StencilGrid(3, 3).csr
        ours = sum(1 for _ in enumerate_simple_cycles(graph, max_len))
        assert ours == nx_cycle_count(graph, max_len)

    def test_matches_networkx_on_random_graph(self, rng):
        from repro.stencil.generic import from_edges

        n = 8
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.35
        ]
        graph = from_edges(n, edges)
        ours = sum(1 for _ in enumerate_simple_cycles(graph, max_len=6))
        assert ours == nx_cycle_count(graph, 6)

    def test_cycles_are_actual_cycles(self):
        graph = StencilGrid(3, 3).csr
        for cycle in enumerate_simple_cycles(graph, max_len=5):
            assert len(set(cycle)) == len(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert graph.has_edge(a, b), (cycle, a, b)


class TestOddCycles:
    def test_only_odd_lengths(self):
        graph = StencilGrid(3, 3).csr
        lengths = {len(c) for c in enumerate_odd_cycles(graph, max_len=5)}
        assert lengths and all(length % 2 == 1 for length in lengths)

    def test_even_cycle_graph_has_none(self):
        assert list(enumerate_odd_cycles(cycle_graph(6), max_len=6)) == []

    def test_figure2_c7_found(self):
        from repro.data.paper_instances import figure2_odd_cycle

        inst = figure2_odd_cycle()
        positive = set(np.flatnonzero(inst.weights > 0).tolist())
        found = any(
            set(c) == positive for c in enumerate_odd_cycles(inst.graph, max_len=7)
        )
        assert found
