"""Tests for the IVCInstance container."""

import numpy as np
import pytest

from repro.core.problem import IVCInstance
from repro.runtime.context import ExecutionContext, use_context
from repro.stencil.generic import cycle_graph, path_graph
from repro.stencil.grid import StencilGrid


class TestConstruction:
    def test_from_grid_2d(self):
        inst = IVCInstance.from_grid_2d(np.ones((3, 4), dtype=int))
        assert inst.num_vertices == 12
        assert inst.is_2d and not inst.is_3d
        assert inst.geometry.shape == (3, 4)

    def test_from_grid_3d(self):
        inst = IVCInstance.from_grid_3d(np.ones((2, 3, 4), dtype=int))
        assert inst.num_vertices == 24
        assert inst.is_3d and not inst.is_2d

    def test_from_grid_2d_wrong_ndim(self):
        with pytest.raises(ValueError, match="2D weight grid"):
            IVCInstance.from_grid_2d(np.ones((2, 2, 2)))

    def test_from_grid_3d_wrong_ndim(self):
        with pytest.raises(ValueError, match="3D weight grid"):
            IVCInstance.from_grid_3d(np.ones((4, 4)))

    def test_from_grid_picks_the_stencil_by_rank(self):
        flat = IVCInstance.from_grid([[1, 2], [3, 4]], name="a", metadata={"k": 1})
        assert flat.is_2d and flat.name == "a" and flat.metadata == {"k": 1}
        assert flat.geometry is IVCInstance.from_grid_2d(np.ones((2, 2))).geometry
        cube = IVCInstance.from_grid(np.ones((2, 3, 4), dtype=int))
        assert cube.is_3d and cube.geometry.shape == (2, 3, 4)

    @pytest.mark.parametrize("shape", [(4,), (1, 1, 1, 1)])
    def test_from_grid_rejects_other_ranks(self, shape):
        with pytest.raises(ValueError, match="2D or 3D weight grid"):
            IVCInstance.from_grid(np.ones(shape))

    def test_from_grid_looks_up_the_ranked_constructor_per_call(self, monkeypatch):
        # A wrapper installed on the class (as a tracer does) sees the call.
        seen = []
        original = IVCInstance.from_grid_3d.__func__

        def spy(cls, *args, **kwargs):
            seen.append(args[0].shape)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(IVCInstance, "from_grid_3d", classmethod(spy))
        IVCInstance.from_grid(np.ones((2, 2, 2)))
        assert seen == [(2, 2, 2)]

    def test_from_graph(self):
        inst = IVCInstance.from_graph(path_graph(3), [1, 2, 3])
        assert inst.num_vertices == 3
        assert inst.geometry is None
        assert not inst.is_2d and not inst.is_3d

    def test_from_edges(self):
        inst = IVCInstance.from_edges(3, [(0, 1)], [1, 1, 1])
        assert inst.num_edges == 1

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            IVCInstance.from_graph(path_graph(2), [1, -1])

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(ValueError, match="expected 3 weights"):
            IVCInstance.from_graph(path_graph(3), [1, 2])

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            IVCInstance(
                graph=cycle_graph(5),
                weights=np.ones(5, dtype=int),
                geometry=StencilGrid(2, 2),
            )

    def test_weights_coerced_to_int64(self):
        inst = IVCInstance.from_grid_2d(np.ones((2, 2), dtype=np.int32))
        assert inst.weights.dtype == np.int64


class TestProperties:
    def test_total_weight(self):
        inst = IVCInstance.from_grid_2d([[1, 2], [3, 4]])
        assert inst.total_weight == 10

    def test_weight_grid_roundtrip(self):
        grid = np.arange(6).reshape(2, 3)
        inst = IVCInstance.from_grid_2d(grid)
        assert np.array_equal(inst.weight_grid(), grid)

    def test_weight_grid_requires_geometry(self):
        inst = IVCInstance.from_graph(path_graph(2), [1, 1])
        with pytest.raises(ValueError, match="no stencil geometry"):
            inst.weight_grid()

    def test_metadata_and_name(self):
        inst = IVCInstance.from_grid_2d(
            [[1, 1], [1, 1]], name="x", metadata={"plane": "xy"}
        )
        assert inst.name == "x"
        assert inst.metadata["plane"] == "xy"

    def test_num_edges_2d(self):
        inst = IVCInstance.from_grid_2d(np.ones((2, 2)))
        assert inst.num_edges == 6  # K4


def _fresh_instance(shape, seed=0):
    """A stencil instance over a geometry no earlier test has touched."""
    weights = np.random.default_rng(seed).integers(0, 9, size=shape)
    with use_context(ExecutionContext()):
        if len(shape) == 2:
            return IVCInstance.from_grid_2d(weights)
        return IVCInstance.from_grid_3d(weights)


class TestLazyGraph:
    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (1, 7), (7, 1), (2, 2), (5, 8), (1, 1, 6), (1, 4, 5), (3, 1, 2), (3, 4, 5)],
    )
    def test_closed_form_num_edges_matches_csr(self, shape):
        inst = _fresh_instance(shape)
        m = inst.num_edges
        assert "csr" not in inst.geometry.__dict__
        assert m == inst.geometry.csr.num_edges

    def test_stencil_instance_builds_no_csr_until_graph_is_read(self):
        inst = _fresh_instance((6, 5))
        repr(inst)
        assert (inst.num_vertices, inst.num_edges) == (30, 4 * 30 - 3 * 6 - 3 * 5 + 2)
        assert "csr" not in inst.geometry.__dict__
        assert inst.graph is inst.geometry.csr  # the shared per-shape CSR

    def test_given_graph_is_kept(self):
        graph = cycle_graph(4)
        inst = IVCInstance(graph=graph, weights=[1, 2, 3, 4])
        assert inst.graph is graph
        assert inst.num_edges == 4

    def test_needs_a_graph_or_a_geometry(self):
        with pytest.raises(ValueError, match="graph or a stencil geometry"):
            IVCInstance(weights=[1, 2])


class TestIdentityEquality:
    def test_equality_is_identity(self):
        inst = _fresh_instance((3, 3))
        twin = IVCInstance.from_grid_2d(inst.weight_grid())
        assert inst == inst
        assert inst != twin  # used to raise: the truth value of an array
        assert "csr" not in inst.geometry.__dict__

    def test_instances_are_hashable(self):
        a = IVCInstance.from_grid_2d(np.ones((2, 2)))
        b = IVCInstance.from_graph(path_graph(2), [1, 1])
        assert {a: "grid", b: "path"}[a] == "grid"
        assert len({a, b, a}) == 2
