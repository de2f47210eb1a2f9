"""Kernel dispatch: one boolean, decided once per call.

An algorithm runs its kernels when its spec has them (``kernels=True``),
the instance has a stencil geometry, and the decision is for kernels: an
explicit ``fast=``, else ``RuntimeConfig.fast_paths``.  There is no size
rule, so the degenerate grids run the kernels too.  ``color_with`` runs a
``fast`` that differs from the config under a child context carrying it, so
the primitives underneath follow the call, and ``provenance["fast"]`` /
``registry.dispatch_*`` name the path that ran.
"""

import importlib

import numpy as np
import pytest

from repro.api import color
from repro.core.algorithms.registry import (
    ALGORITHMS,
    EXTENDED_ALGORITHMS,
    REGISTRY,
    color_with,
)
from repro.core.problem import IVCInstance
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext

REFERENCE_SPECS = [spec.name for spec in REGISTRY.specs() if not spec.kernels]


def _grid(shape, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 50, size=shape)
    return IVCInstance.from_grid(weights)


def _counters(ctx):
    return ctx.metrics.snapshot()["counters"]


def test_specs_without_kernels_are_the_clique_stackers():
    """Only 2D SGK's 4! search per block has no kernel; GKF and SGK-ws are
    first fit in the clique order."""
    assert REFERENCE_SPECS == ["SGK"]


#: Grids below every crossover the size rule used to apply (8 vertices, 16
#: for GLF+P): single cells, lines, one K4 and one 2x2x1 slab.
DEGENERATE = [(1, 1), (1, 3), (2, 2), (1, 1, 1), (2, 2, 1)]


@pytest.mark.parametrize("name", list(EXTENDED_ALGORITHMS))
@pytest.mark.parametrize(
    "shape", DEGENERATE + [(2, 2, 2)], ids=lambda s: "x".join(map(str, s))
)
def test_degenerate_grids_run_the_kernels_by_default(shape, name):
    """Under the default config, with no ``fast=``, every spec with kernels
    reports ``provenance["fast"]`` and matches the reference starts; SGK
    reports the reference loops."""
    weights = np.random.default_rng(sum(shape)).integers(0, 30, size=shape)
    spec = REGISTRY.get(name)
    ctx = ExecutionContext(RuntimeConfig())
    result = color(weights, name, runtime=ctx)
    assert result.provenance["fast"] is spec.kernels
    counted = "registry.dispatch_fast" if spec.kernels else "registry.dispatch_reference"
    assert _counters(ctx)[counted] == 1
    reference = color_with(IVCInstance.from_grid(weights), name, fast=False)
    assert np.array_equal(result.starts.ravel(), reference.starts)


class TestPrimitivesFollowTheScope:
    """Inside ``color_with`` the primitives take the call's decision."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        from repro.kernels import wavefront

        calls = []
        real = wavefront.wavefront_greedy_color

        def spy(instance, order):
            calls.append(instance.num_vertices)
            return real(instance, order)

        monkeypatch.setattr(wavefront, "wavefront_greedy_color", spy)
        return calls

    @pytest.mark.parametrize("mode", ["on", "auto"])
    def test_tiny_glf_post_reaches_the_kernel_when_decided(self, kernel_calls, mode):
        """GLF+P has no ``fast_fn``; its GLF pass runs the kernel on a 3x3
        grid both when the call asks (``on``: ``fast=True`` on a context
        whose config is off) and when the default config decides
        (``auto``: no ``fast=``)."""
        instance = _grid((3, 3))
        if mode == "on":
            ctx, fast = ExecutionContext(RuntimeConfig(fast_paths=False)), True
        else:
            ctx, fast = ExecutionContext(RuntimeConfig()), None
        assert REGISTRY.get("GLF+P").runs_kernel(instance, fast, ctx)
        result = color_with(instance, "GLF+P", fast=fast, context=ctx)
        assert kernel_calls == [9]
        assert _counters(ctx)["registry.dispatch_fast"] == 1
        assert np.array_equal(
            result.starts, color_with(instance, "GLF+P", fast=False).starts
        )

    def test_reference_decision_reaches_every_primitive(self, kernel_calls):
        color_with(_grid((40, 40)), "GLF+P", fast=False)
        assert kernel_calls == []


#: Every entry point by which a coloring reaches the wavefront or chain
#: kernels; the primitives import them at call time, so a spy sees each call.
KERNEL_ENTRY_POINTS = {
    "repro.kernels.wavefront": ("wavefront_greedy_color", "wavefront_recolor_pass"),
    "repro.kernels.chains": ("bd_starts_2d", "bd_starts_3d", "bdp_recolor_order_fast"),
}


@pytest.fixture
def kernels_ran(monkeypatch):
    """Names of the kernel entry points called, in call order."""
    ran = []
    for module_name, attrs in KERNEL_ENTRY_POINTS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            real = getattr(module, attr)

            def spy(*args, _real=real, _attr=attr, **kwargs):
                ran.append(_attr)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, attr, spy)
    return ran


@pytest.mark.parametrize("mode", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("shape", [(8, 8), (48, 48), (6, 6, 6)],
                         ids=lambda s: "x".join(map(str, s)))
def test_provenance_fast_is_whether_a_kernel_ran(kernels_ran, mode, shape):
    """For every registered algorithm, ``provenance["fast"]`` and the
    dispatch counter say "kernel" exactly when a kernel entry point ran —
    through a ``fast_fn`` binding or through the primitives under ``fn``."""
    instance = _grid(shape)
    for name in EXTENDED_ALGORITHMS:
        kernels_ran.clear()
        ctx = ExecutionContext(RuntimeConfig(fast_paths=mode))
        result = color(instance, name, runtime=ctx)
        ran = bool(kernels_ran)
        assert result.provenance["fast"] is ran, (name, kernels_ran)
        counted = "registry.dispatch_fast" if ran else "registry.dispatch_reference"
        assert _counters(ctx)[counted] == 1, name
        assert ran is (mode and REGISTRY.get(name).kernels), (name, kernels_ran)


SHAPES = [(s, s) for s in (8, 12, 16, 24, 32, 48, 64)] + [
    (s, s, s) for s in (6, 8, 10, 12, 16)
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_auto_mode_starts_equal_reference(shape):
    """``runtime="auto"`` (the config decides: kernels) gives every paper
    algorithm the reference loops' starts."""
    instance = _grid(shape, seed=len(shape))
    for name in ALGORITHMS:
        auto = color(instance, name, runtime="auto")
        reference = color_with(instance, name, fast=False)
        assert np.array_equal(auto.starts.ravel(), reference.starts), name
