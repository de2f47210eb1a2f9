"""Tests for the 9-pt 2D stencil substrate."""

import numpy as np
import pytest

from repro.stencil.grid import StencilGrid, axis_offsets, moore_offsets


class TestBasics:
    def test_shape_and_count(self):
        g = StencilGrid(4, 7)
        assert g.shape == (4, 7)
        assert g.num_vertices == 28

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            StencilGrid(0, 3)

    def test_vertex_id_coords_roundtrip(self):
        g = StencilGrid(5, 6)
        ids = np.arange(g.num_vertices)
        i, j = g.coords(ids)
        assert np.array_equal(g.vertex_id(i, j), ids)

    def test_vertex_id_row_major(self):
        g = StencilGrid(3, 4)
        assert g.vertex_id(0, 0) == 0
        assert g.vertex_id(0, 3) == 3
        assert g.vertex_id(1, 0) == 4
        assert g.vertex_id(2, 3) == 11

    def test_equality_and_hash(self):
        assert StencilGrid(3, 4) == StencilGrid(3, 4)
        assert StencilGrid(3, 4) != StencilGrid(4, 3)
        assert hash(StencilGrid(3, 4)) == hash(StencilGrid(3, 4))

    def test_offsets_counts(self):
        assert len(moore_offsets(2)) == 8
        assert len(axis_offsets(2)) == 4

    def test_offsets_order(self):
        # The layout's deltas follow this order.
        assert moore_offsets(2) == tuple(
            (di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)
        )
        assert axis_offsets(2) == ((-1, 0), (1, 0), (0, -1), (0, 1))

    @pytest.mark.parametrize("dims", [(), (5,), (2, 2, 2, 2)])
    def test_only_2d_and_3d(self, dims):
        with pytest.raises(ValueError):
            StencilGrid(*dims)

    def test_2d_and_3d_grids_differ(self):
        assert StencilGrid(3, 4) != StencilGrid(3, 4, 1)
        assert StencilGrid(3, 4).ndim == 2


class TestAdjacency:
    def test_degree_corner_edge_interior(self):
        g = StencilGrid(4, 4)
        csr = g.csr
        assert csr.degree(g.vertex_id(0, 0)) == 3  # corner
        assert csr.degree(g.vertex_id(0, 1)) == 5  # edge
        assert csr.degree(g.vertex_id(1, 1)) == 8  # interior

    def test_total_edges_formula(self):
        # 9-pt stencil on X*Y: horizontal X(Y-1)... careful: edges =
        # (X-1)Y + X(Y-1) + 2(X-1)(Y-1).
        X, Y = 5, 3
        g = StencilGrid(X, Y)
        expected = (X - 1) * Y + X * (Y - 1) + 2 * (X - 1) * (Y - 1)
        assert g.csr.num_edges == expected

    def test_csr_valid(self):
        StencilGrid(4, 5).csr.validate()

    def test_adjacency_matches_definition(self):
        g = StencilGrid(4, 4)
        csr = g.csr
        for v in range(g.num_vertices):
            i, j = g.coords(v)
            for u in csr.neighbors(v):
                ui, uj = g.coords(int(u))
                assert abs(int(i) - int(ui)) <= 1 and abs(int(j) - int(uj)) <= 1
                assert (ui, uj) != (i, j)

    def test_neighbors_method_matches_csr(self):
        g = StencilGrid(3, 5)
        for i in range(3):
            for j in range(5):
                from_method = {g.vertex_id(a, b).item() for a, b in g.neighbors(i, j)}
                from_csr = set(g.csr.neighbors(int(g.vertex_id(i, j))).tolist())
                assert from_method == from_csr

    def test_5pt_is_subgraph_and_bipartite(self):
        from repro.stencil.generic import is_bipartite

        g = StencilGrid(4, 4)
        edges9 = {tuple(e) for e in g.csr.edges().tolist()}
        edges5 = {tuple(e) for e in g.csr_axis.edges().tolist()}
        assert edges5 < edges9
        ok, side = is_bipartite(g.csr_axis)
        assert ok
        # Sides are the parity classes of i + j.
        i, j = g.coords(np.arange(g.num_vertices))
        parity = (i + j) % 2
        assert np.all((side == side[0]) == (parity == parity[0]))

    def test_5pt_degree(self):
        g = StencilGrid(4, 4)
        assert g.csr_axis.degree(int(g.vertex_id(1, 1))) == 4
        assert g.csr_axis.degree(int(g.vertex_id(0, 0))) == 2


class TestBlocks:
    def test_block_count(self):
        g = StencilGrid(5, 4)
        assert len(g.blocks) == 4 * 3

    def test_blocks_are_cliques(self):
        g = StencilGrid(4, 4)
        csr = g.csr
        for block in g.blocks:
            for a in block:
                for b in block:
                    if a != b:
                        assert csr.has_edge(int(a), int(b))

    def test_block_weight_sums(self):
        g = StencilGrid(3, 3)
        w = np.arange(9)
        sums = g.block_weight_sums(w)
        grid = w.reshape(3, 3)
        expected = [
            grid[i : i + 2, j : j + 2].sum() for i in range(2) for j in range(2)
        ]
        assert sorted(sums.tolist()) == sorted(expected)

    def test_thin_grid_no_blocks(self):
        g = StencilGrid(1, 5)
        assert len(g.blocks) == 0
        assert len(g.block_weight_sums(np.ones(5))) == 0


class TestRowsAndOrders:
    def test_row_ids(self):
        g = StencilGrid(3, 4)
        assert g.layer_ids(0).tolist() == [0, 4, 8]
        assert g.layer_ids(3).tolist() == [3, 7, 11]

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            StencilGrid(3, 4).layer_ids(4)
        with pytest.raises(IndexError):
            StencilGrid(3, 4).layer_ids(-1)

    def test_rows_induce_no_stencil_grid(self):
        # A 2D grid's slices are 1D chains, which are not stencil grids.
        with pytest.raises(ValueError):
            StencilGrid(3, 4).layer_grid()

    def test_rows_partition_vertices(self):
        g = StencilGrid(4, 3)
        all_ids = np.concatenate(g.layers())
        assert sorted(all_ids.tolist()) == list(range(g.num_vertices))

    def test_rows_are_chains(self):
        g = StencilGrid(4, 3)
        csr = g.csr
        for row in g.layers():
            for a, b in zip(row, row[1:]):
                assert csr.has_edge(int(a), int(b))

    def test_line_by_line_is_permutation(self):
        g = StencilGrid(4, 5)
        order = g.line_by_line_order()
        assert sorted(order.tolist()) == list(range(20))

    def test_line_by_line_scans_rows(self):
        g = StencilGrid(3, 2)
        order = g.line_by_line_order()
        # Row j=0 first (ids 0, 2, 4), then row j=1 (ids 1, 3, 5).
        assert order.tolist() == [0, 2, 4, 1, 3, 5]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 2), (5, 8)])
    def test_line_by_line_equals_the_coordinate_construction(self, shape):
        g = StencilGrid(*shape)
        i, j = np.meshgrid(*(np.arange(d) for d in g.shape), indexing="ij")
        want = g.vertex_id(i.T.ravel(), j.T.ravel())
        order = g.line_by_line_order()
        assert order.dtype == np.int64
        assert order.tolist() == want.tolist()

    def test_weights_as_grid(self):
        g = StencilGrid(2, 3)
        w = np.arange(6)
        assert g.weights_as_grid(w).shape == (2, 3)
        assert g.weights_as_grid(w)[1, 2] == w[g.vertex_id(1, 2)]
