"""The ``repro.api`` facade: one entry point, bit-identical to every
legacy call style, with the old top-level shims gone."""

import gc
import warnings

import numpy as np
import pytest

import repro
from repro.api import ColoringResult, color, recolor
from repro.core.algorithms.registry import color_with
from repro.core.problem import IVCInstance
from repro.data import SyntheticWeightSource
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext, use_context


def _weights(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 100, size=shape, dtype=np.int64)


class TestFacadeIdentity:
    @pytest.mark.parametrize("algorithm", ["GLL", "GLF", "BD", "BDP"])
    def test_matches_color_with_on_grids(self, algorithm):
        weights = _weights((12, 9))
        result = color(weights, algorithm)
        legacy = color_with(IVCInstance.from_grid_2d(weights), algorithm)
        assert result.maxcolor == legacy.maxcolor
        np.testing.assert_array_equal(
            result.starts.ravel(), np.asarray(legacy.starts).ravel()
        )
        assert result.starts.shape == weights.shape  # grid-shaped, not flat

    @pytest.mark.parametrize("runtime,fast", [("kernels", True),
                                              ("reference", False)])
    def test_runtime_strings_pin_the_fast_path(self, runtime, fast):
        weights = _weights((10, 10), seed=1)
        result = color(weights, "GLL", runtime=runtime)
        legacy = color_with(IVCInstance.from_grid_2d(weights), "GLL", fast=fast)
        np.testing.assert_array_equal(
            result.starts.ravel(), np.asarray(legacy.starts).ravel()
        )
        assert result.provenance["fast"] is fast

    @pytest.mark.parametrize("side,fast_paths", [(128, True), (2, True), (2, False)])
    def test_provenance_fast_says_whether_the_kernel_ran(self, side, fast_paths):
        # The config decides, at every size: no size rule picks for it.
        config = RuntimeConfig(fast_paths=fast_paths)
        result = color(_weights((side, side)), "GLL", runtime=config)
        assert result.provenance["fast"] is fast_paths

    def test_kernel_request_without_a_kernel_reports_reference(self):
        ctx = ExecutionContext()
        with use_context(ctx):
            result = color(_weights((12, 12)), "SGK", runtime="kernels")
        assert result.provenance["fast"] is False
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["registry.dispatch_reference"] == 1
        assert "registry.dispatch_fast" not in counters

    def test_accepts_prepared_instances(self):
        weights = _weights((6, 5, 4), seed=2)
        instance = IVCInstance.from_grid_3d(weights, name="prep")
        result = color(instance, "BDP")
        legacy = color_with(instance, "BDP")
        assert result.maxcolor == legacy.maxcolor
        np.testing.assert_array_equal(
            result.starts.ravel(), np.asarray(legacy.starts).ravel()
        )

    def test_tiled_runtime_is_bit_identical(self):
        weights = _weights((20, 14), seed=3)
        tiled = color(weights, runtime="tiled", tile_shape=(6, 6))
        mono = color(weights, runtime="kernels")
        assert tiled.mode == "tiled"
        assert tiled.maxcolor == mono.maxcolor
        np.testing.assert_array_equal(tiled.starts, mono.starts)
        assert tiled.provenance["tiles"] > 1
        assert tiled.tiled is not None

    def test_weight_source_input_goes_tiled(self):
        source = SyntheticWeightSource((16, 12), seed=4)
        result = color(source, tile_shape=(5, 5))
        direct = color(source.region(((0, 16), (0, 12))), runtime="kernels")
        assert result.mode == "tiled"
        np.testing.assert_array_equal(result.starts, direct.starts)


class TestFacadeContracts:
    def test_result_carries_provenance_and_metrics(self):
        result = color(_weights((8, 8)), "GLL", validate=True)
        assert isinstance(result, ColoringResult)
        assert result.provenance["mode"] == "monolithic"
        assert result.provenance["algorithm"] == "GLL"
        assert isinstance(result.provenance["runtime"], str)
        assert result.metrics is not None
        assert result.coloring is not None

    def test_runtime_config_and_context_accepted(self):
        weights = _weights((9, 9), seed=5)
        config = RuntimeConfig()
        via_config = color(weights, runtime=config)
        via_context = color(weights, runtime=ExecutionContext(config))
        np.testing.assert_array_equal(via_config.starts, via_context.starts)

    def test_bad_runtime_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            color(_weights((4, 4)), runtime="turbo")
        with pytest.raises(TypeError):
            color(_weights((4, 4)), runtime=42)

    def test_tiled_demands_gll(self):
        with pytest.raises(ValueError, match="GLL"):
            color(_weights((8, 8)), "BDP", runtime="tiled")

    def test_bad_grid_rank_rejected(self):
        with pytest.raises(ValueError, match="2D or 3D"):
            color(np.arange(5), "GLL")

    def test_recolor_rejects_a_base_of_another_algorithm(self):
        weights = _weights((32, 32))
        base = color(weights, "BDP")
        new_weights = weights.copy()
        new_weights.ravel()[100] += 3
        with pytest.raises(ValueError, match="BDP.*GLL"):
            recolor(new_weights, base, dirty=[100])
        patched = recolor(new_weights, base, dirty=[100], algorithm="BDP")
        np.testing.assert_array_equal(
            patched.starts, color(new_weights, "BDP").starts
        )


class TestKernelPathBuildsNoCSR:
    """Kernel runs and their validation read the stencil layout only."""

    @pytest.mark.parametrize("shape", [(24, 17), (6, 5, 7)])
    @pytest.mark.parametrize("algorithm", ["GLL", "GLF", "GZO", "BDP"])
    def test_kernel_run_and_violations_build_no_csr(self, algorithm, shape):
        with use_context(ExecutionContext()):
            result = color(_weights(shape), algorithm, runtime="kernels")
            assert result.provenance["fast"] is True
            assert len(result.coloring.violations()) == 0
            geometry = result.coloring.instance.geometry
        assert "csr" not in geometry.__dict__

    @pytest.mark.parametrize("algorithm,runtime", [("GSL", "kernels"),
                                                   ("GLL", "reference")])
    def test_csr_paths_still_build_it(self, algorithm, runtime):
        weights = _weights((9, 8), seed=2)
        with use_context(ExecutionContext()):
            result = color(weights, algorithm, runtime=runtime, validate=True)
            geometry = result.coloring.instance.geometry
        assert "csr" in geometry.__dict__
        legacy = color_with(
            IVCInstance.from_grid_2d(weights), algorithm, fast=runtime == "kernels"
        )
        np.testing.assert_array_equal(result.starts.ravel(), legacy.starts)


class TestDeprecationShims:
    """The compatibility layer is gone; the facade and home packages stay."""

    def test_legacy_layer_is_removed(self):
        import repro.kernels
        from repro.cli import build_parser

        for module, name in [
            (repro, "color_with"),
            (repro, "run_grid"),
            (repro.kernels, "set_fast_paths"),
        ]:
            with pytest.raises(AttributeError):
                getattr(module, name)
        assert "color_with" not in repro.__all__
        assert "run_grid" not in repro.__all__
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--fast-path"])
        with pytest.raises(TypeError):
            color(_weights((4, 4)), "GLL", jobs=1)

    def test_facade_is_exported_at_top_level(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the new names must not warn
            result = repro.color(_weights((5, 5), seed=8), "GLL")
        assert result.maxcolor > 0
        assert "color" in repro.__all__ and "api" in repro.__all__


@pytest.mark.parametrize("alg", ["GLL", "GLF", "GZO", "BDP"])
@pytest.mark.parametrize("shape", [(40, 40), (12, 12, 12)])
def test_color_leaves_no_reference_cycle(shape, alg):
    # Every array of a color call is freed by reference counting: with the
    # cyclic collector off, nothing is left for it to find, so peak memory
    # does not depend on when it runs.
    weights = np.random.default_rng(len(shape)).integers(1, 1000, size=shape)
    gc.collect()
    gc.disable()
    try:
        color(weights, alg)
        assert gc.collect() == 0
    finally:
        gc.enable()
