"""Tests for the 27-pt 3D stencil substrate."""

import numpy as np
import pytest

from repro.stencil.grid import StencilGrid, axis_offsets, moore_offsets


class TestBasics:
    def test_shape_and_count(self):
        g = StencilGrid(3, 4, 5)
        assert g.shape == (3, 4, 5)
        assert g.num_vertices == 60

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            StencilGrid(2, 0, 2)

    def test_vertex_id_coords_roundtrip(self):
        g = StencilGrid(3, 4, 5)
        ids = np.arange(g.num_vertices)
        i, j, k = g.coords(ids)
        assert np.array_equal(g.vertex_id(i, j, k), ids)

    def test_offsets_counts(self):
        assert len(moore_offsets(3)) == 26
        assert len(axis_offsets(3)) == 6

    def test_offsets_order(self):
        assert moore_offsets(3) == tuple(
            (di, dj, dk)
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for dk in (-1, 0, 1)
            if (di, dj, dk) != (0, 0, 0)
        )
        assert axis_offsets(3) == (
            (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)
        )

    def test_vertex_id_row_major(self):
        g = StencilGrid(2, 3, 4)
        assert g.vertex_id(0, 0, 3) == 3
        assert g.vertex_id(0, 1, 0) == 4
        assert g.vertex_id(1, 0, 0) == 12
        assert g.vertex_id(1, 2, 3) == 23

    def test_equality(self):
        assert StencilGrid(2, 3, 4) == StencilGrid(2, 3, 4)
        assert StencilGrid(2, 3, 4) != StencilGrid(4, 3, 2)


class TestAdjacency:
    def test_degree_corner_and_interior(self):
        g = StencilGrid(3, 3, 3)
        csr = g.csr
        assert csr.degree(int(g.vertex_id(0, 0, 0))) == 7  # corner
        assert csr.degree(int(g.vertex_id(1, 1, 1))) == 26  # interior

    def test_degree_face_and_edge_centers(self):
        g = StencilGrid(3, 3, 3)
        csr = g.csr
        assert csr.degree(int(g.vertex_id(1, 1, 0))) == 17  # face center
        assert csr.degree(int(g.vertex_id(1, 0, 0))) == 11  # edge center

    def test_csr_valid(self):
        StencilGrid(2, 3, 4).csr.validate()

    def test_adjacency_matches_definition(self):
        g = StencilGrid(3, 2, 3)
        csr = g.csr
        for v in range(g.num_vertices):
            ci = g.coords(v)
            for u in csr.neighbors(v):
                cu = g.coords(int(u))
                assert all(abs(int(a) - int(b)) <= 1 for a, b in zip(ci, cu))

    def test_neighbors_method_matches_csr(self):
        g = StencilGrid(2, 3, 2)
        for v in range(g.num_vertices):
            i, j, k = (int(c) for c in g.coords(v))
            from_method = {
                int(g.vertex_id(*c)) for c in g.neighbors(i, j, k)
            }
            assert from_method == set(g.csr.neighbors(v).tolist())

    def test_7pt_is_subgraph_and_bipartite(self):
        from repro.stencil.generic import is_bipartite

        g = StencilGrid(3, 3, 3)
        edges27 = {tuple(e) for e in g.csr.edges().tolist()}
        edges7 = {tuple(e) for e in g.csr_axis.edges().tolist()}
        assert edges7 < edges27
        ok, _ = is_bipartite(g.csr_axis)
        assert ok

    def test_7pt_degree(self):
        g = StencilGrid(3, 3, 3)
        assert g.csr_axis.degree(int(g.vertex_id(1, 1, 1))) == 6


class TestBlocks:
    def test_block_count(self):
        g = StencilGrid(3, 4, 5)
        assert len(g.blocks) == 2 * 3 * 4

    def test_blocks_are_cliques(self):
        g = StencilGrid(3, 3, 3)
        csr = g.csr
        for block in g.blocks:
            for a in block:
                for b in block:
                    if a != b:
                        assert csr.has_edge(int(a), int(b))

    def test_block_weight_sums_match_cube_sums(self):
        g = StencilGrid(3, 3, 3)
        w = np.arange(27)
        grid = w.reshape(3, 3, 3)
        sums = g.block_weight_sums(w)
        expected = [
            grid[i : i + 2, j : j + 2, k : k + 2].sum()
            for i in range(2)
            for j in range(2)
            for k in range(2)
        ]
        assert sorted(sums.tolist()) == sorted(expected)

    def test_thin_grid_no_blocks(self):
        g = StencilGrid(1, 3, 3)
        assert len(g.blocks) == 0


class TestLayers:
    def test_layer_partition(self):
        g = StencilGrid(3, 2, 4)
        all_ids = np.concatenate(g.layers())
        assert sorted(all_ids.tolist()) == list(range(g.num_vertices))

    def test_layer_out_of_range(self):
        with pytest.raises(IndexError):
            StencilGrid(2, 2, 2).layer_ids(2)

    def test_layer_induces_2d_stencil(self):
        g = StencilGrid(3, 4, 2)
        layer = g.layer_ids(1)
        g2 = g.layer_grid()
        assert g2.shape == (3, 4)
        # Adjacency within the layer matches the 9-pt 2D stencil.
        csr3 = g.csr
        csr2 = g2.csr
        layer_set = set(layer.tolist())
        for a2 in range(g2.num_vertices):
            a3 = int(layer[a2])
            nbs3 = set(csr3.neighbors(a3).tolist()) & layer_set
            nbs2 = {int(layer[u]) for u in csr2.neighbors(a2)}
            assert nbs3 == nbs2

    def test_line_by_line_is_permutation(self):
        g = StencilGrid(2, 3, 4)
        order = g.line_by_line_order()
        assert sorted(order.tolist()) == list(range(24))

    def test_line_by_line_plane_major(self):
        g = StencilGrid(2, 2, 2)
        order = g.line_by_line_order()
        # First plane k=0 entirely before plane k=1.
        ks = [int(g.coords(v)[2]) for v in order]
        assert ks == [0, 0, 0, 0, 1, 1, 1, 1]

    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (1, 1, 6), (6, 1, 1), (1, 6, 1), (1, 3, 4), (2, 3, 4), (4, 3, 2)]
    )
    def test_line_by_line_equals_the_coordinate_construction(self, shape):
        g = StencilGrid(*shape)
        k, j, i = np.meshgrid(*(np.arange(d) for d in g.shape[::-1]), indexing="ij")
        want = g.vertex_id(i.ravel(), j.ravel(), k.ravel())
        order = g.line_by_line_order()
        assert order.dtype == np.int64
        assert order.tolist() == want.tolist()

    def test_weights_as_grid(self):
        g = StencilGrid(2, 2, 2)
        w = np.arange(8)
        assert g.weights_as_grid(w)[1, 0, 1] == w[g.vertex_id(1, 0, 1)]
