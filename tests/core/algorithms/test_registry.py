"""Tests for the algorithm registry."""

import numpy as np
import pytest

from repro.core.algorithms.registry import (
    ALGORITHMS,
    EXTENDED_ALGORITHMS,
    REGISTRY,
    AlgorithmSpec,
    Registry,
    UnknownAlgorithmError,
    available_algorithms,
    color_with,
)
from repro.core.problem import IVCInstance
from repro.stencil.generic import path_graph


class TestRegistry:
    def test_all_paper_algorithms_present(self):
        assert set(ALGORITHMS) == {"GLL", "GZO", "GLF", "GKF", "SGK", "BD", "BDP"}

    def test_color_with_runs_everything(self, small_2d, small_3d):
        for inst in (small_2d, small_3d):
            for name in ALGORITHMS:
                c = color_with(inst, name)
                assert c.is_valid()
                assert c.algorithm == name
                assert c.elapsed >= 0

    def test_unknown_name_raises(self, small_2d):
        with pytest.raises(KeyError, match="unknown algorithm"):
            color_with(small_2d, "NOPE")

    def test_available_on_stencil(self, small_2d):
        assert available_algorithms(small_2d) == list(ALGORITHMS)

    def test_available_on_generic_graph(self):
        inst = IVCInstance.from_graph(path_graph(3), [1, 1, 1])
        assert available_algorithms(inst) == ["GLL", "GLF"]
        for name in available_algorithms(inst):
            assert color_with(inst, name).is_valid()

    def test_timing_recorded(self, small_2d):
        c = color_with(small_2d, "SGK")
        assert c.elapsed > 0


class TestAlgorithmSpec:
    def test_specs_carry_capabilities(self):
        spec = REGISTRY.get("BDP")
        assert spec.name == "BDP"
        assert spec.needs_geometry
        assert spec.supported_dims == (2, 3)
        assert not spec.is_extension
        assert spec.description

    def test_geometry_free_specs(self, small_2d):
        for name in ("GLL", "GLF", "GSL", "GLF+LS"):
            assert not REGISTRY.get(name).needs_geometry

    def test_supports(self, small_2d, small_3d):
        bare = IVCInstance.from_graph(path_graph(3), [1, 1, 1])
        assert REGISTRY.get("GLL").supports(bare)
        assert not REGISTRY.get("BDP").supports(bare)
        assert REGISTRY.get("BDP").supports(small_2d)
        assert REGISTRY.get("BDP").supports(small_3d)
        only_2d = AlgorithmSpec("X2", lambda i: None, supported_dims=(2,))
        assert only_2d.supports(small_2d)
        assert not only_2d.supports(small_3d)


class TestTypedRegistry:
    def test_unknown_name_typed_error_with_suggestion(self, small_2d):
        with pytest.raises(UnknownAlgorithmError) as excinfo:
            color_with(small_2d, "GLFF")
        err = excinfo.value
        assert isinstance(err, KeyError)  # back-compat with except KeyError
        assert err.name == "GLFF"
        assert err.suggestion == "GLF"
        assert "did you mean 'GLF'" in str(err)

    def test_unknown_name_without_close_match(self):
        with pytest.raises(UnknownAlgorithmError) as excinfo:
            REGISTRY.get("completely-unrelated")
        assert excinfo.value.suggestion is None
        assert "choose from" in str(excinfo.value)

    def test_register_refuses_silent_overwrite(self):
        with pytest.raises(ValueError, match="already registered"):
            REGISTRY.register(AlgorithmSpec("GLF", lambda i: None))

    def test_fast_fn_needs_kernels(self):
        # kernels=False means the reference loops always run, so a fast_fn
        # on such a spec could never run.
        with pytest.raises(ValueError, match="no kernels"):
            AlgorithmSpec("X", lambda i: None, fast_fn=lambda i: None)
        assert AlgorithmSpec("X", len, fast_fn=len, kernels=True).kernels

    def test_register_and_unregister(self, small_2d):
        fresh = Registry()
        spec = AlgorithmSpec(
            "CONST", lambda inst: color_with(inst, "GLF"),
            needs_geometry=False, is_extension=True,
        )
        fresh.register(spec)
        assert "CONST" in fresh and len(fresh) == 1
        assert fresh.get("CONST") is spec
        assert fresh.unregister("CONST") is spec
        assert "CONST" not in fresh

    def test_select_filters_by_capability(self, small_2d):
        bare = IVCInstance.from_graph(path_graph(3), [1, 1, 1])
        assert REGISTRY.select(small_2d) == list(ALGORITHMS)
        assert REGISTRY.select(bare) == ["GLL", "GLF"]
        extended = REGISTRY.select(bare, include_extensions=True)
        assert set(extended) == {"GLL", "GLF", "GSL", "GLF+LS"}

    def test_names_and_specs(self):
        assert REGISTRY.names(include_extensions=False) == list(ALGORITHMS)
        assert REGISTRY.names() == list(EXTENDED_ALGORITHMS)
        assert [s.name for s in REGISTRY.specs()] == REGISTRY.names()


class TestBackCompatViews:
    def test_views_are_mappings(self):
        assert ALGORITHMS["GLF"] is REGISTRY.get("GLF").fn
        assert dict(EXTENDED_ALGORITHMS)  # Mapping protocol: iteration+getitem
        assert len(EXTENDED_ALGORITHMS) == len(REGISTRY)
        assert len(ALGORITHMS) == 7

    def test_views_are_live(self):
        REGISTRY.register(
            AlgorithmSpec("TMP", lambda i: None, is_extension=True)
        )
        try:
            assert "TMP" in EXTENDED_ALGORITHMS
            assert "TMP" not in ALGORITHMS
        finally:
            REGISTRY.unregister("TMP")
        assert "TMP" not in EXTENDED_ALGORITHMS

    def test_view_miss_raises_typed_error(self):
        with pytest.raises(UnknownAlgorithmError):
            EXTENDED_ALGORITHMS["NOPE"]
        with pytest.raises(KeyError):
            ALGORITHMS["GSL"]  # extension not visible in the paper view

    def test_available_algorithms_extensions_flag(self, small_2d):
        full = available_algorithms(small_2d, include_extensions=True)
        assert set(full) == set(EXTENDED_ALGORITHMS)


class TestExtendedRegistry:
    def test_superset_of_paper_algorithms(self):
        assert set(ALGORITHMS) < set(EXTENDED_ALGORITHMS)
        assert {"GSL", "GLF+P", "BD+IP", "SGK-ws"} <= set(EXTENDED_ALGORITHMS)

    def test_all_extensions_valid(self, small_2d, small_3d):
        for inst in (small_2d, small_3d):
            for name in ("GSL", "GLF+P", "BD+IP", "SGK-ws"):
                c = color_with(inst, name)
                assert c.is_valid(), name
                assert c.algorithm == name

    def test_glf_post_never_worse(self, small_2d):
        assert color_with(small_2d, "GLF+P").maxcolor <= color_with(small_2d, "GLF").maxcolor

    def test_bd_iterated_never_worse_than_bdp(self, small_2d, small_3d):
        # BD+IP's first sweep is exactly BDP's, so it can only improve on it.
        for inst in (small_2d, small_3d):
            assert color_with(inst, "BD+IP").maxcolor <= color_with(inst, "BDP").maxcolor
