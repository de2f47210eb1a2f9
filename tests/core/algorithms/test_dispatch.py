"""Auto-mode kernel dispatch: one per-algorithm crossover, applied once.

``AlgorithmSpec.kernel_from`` is the vertex count from which auto mode runs
an algorithm's kernels.  The decision is made by the spec alone; ``color_with``
scopes it over the call, so the primitives underneath follow it without a
second size check, and ``provenance["fast"]`` / ``registry.dispatch_*``
name the path that ran.  The values come from the committed sweep in
``BENCH_crossover.json`` (``tools/kernel_crossover.py``).
"""

import importlib.util
import json
from pathlib import Path

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

REPO_ROOT = Path(__file__).resolve().parents[3]
BENCH = REPO_ROOT / "BENCH_crossover.json"

KERNEL_SPECS = [
    spec.name for spec in REGISTRY.specs() if spec.kernel_from is not None
]


def _instance(n, seed=0):
    """A 1 x n grid: a stencil instance of exactly ``n`` vertices."""
    weights = np.random.default_rng(seed).integers(1, 30, size=(1, n))
    return IVCInstance.from_grid_2d(weights)


def _grid(shape, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 50, size=shape)
    make = IVCInstance.from_grid_2d if len(shape) == 2 else IVCInstance.from_grid_3d
    return make(weights)


def _counters(ctx):
    return ctx.metrics.snapshot()["counters"]


@pytest.mark.parametrize("name", KERNEL_SPECS)
@pytest.mark.parametrize("offset", [-1, 0])
def test_auto_mode_switches_at_kernel_from(name, offset):
    """Just below ``kernel_from`` the reference runs, at it the kernel —
    for ``color_with`` and ``api.color`` alike, with provenance and the
    dispatch counters naming that path."""
    spec = REGISTRY.get(name)
    n = spec.kernel_from + offset
    if n < 1:
        pytest.skip(f"{name} runs its kernel from every size")
    kernel = offset == 0
    instance = _instance(n)
    reference = color_with(instance, name, fast=False)

    ctx = ExecutionContext(RuntimeConfig())
    direct = color_with(instance, name, context=ctx)
    counted = "registry.dispatch_fast" if kernel else "registry.dispatch_reference"
    assert _counters(ctx)[counted] == 1
    assert spec.runs_kernel(instance, context=ctx) is kernel

    ctx = ExecutionContext(RuntimeConfig())
    result = color(instance, name, runtime=ctx)
    assert result.provenance["fast"] is kernel
    assert _counters(ctx)[counted] == 1
    assert _counters(ctx)["registry.dispatch"] == 1

    assert np.array_equal(direct.starts, reference.starts)
    assert np.array_equal(result.starts.ravel(), reference.starts)


class TestPrimitivesFollowTheScope:
    """Inside ``color_with`` the primitives take the scoped decision, with
    no second size check of their own."""

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
        """GLF+P has no ``fast_fn``; its GLF pass runs the wavefront kernel
        whenever the spec decided for kernels, however small the grid."""
        spec = REGISTRY.get("GLF+P")
        instance = _grid((3, 3))
        ctx = ExecutionContext(RuntimeConfig(fast_paths=mode))
        decided = spec.wants_fast(instance, context=ctx)
        assert decided is (mode == "on" or instance.num_vertices >= spec.kernel_from)
        result = color_with(instance, "GLF+P", context=ctx)
        assert kernel_calls == ([9] if decided else [])
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


@pytest.mark.parametrize("mode", ["on", "off", "auto"])
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
        if mode == "off" or REGISTRY.get(name).kernel_from is None:
            assert not ran, (name, kernels_ran)


SHAPES = [(s, s) for s in (8, 12, 16, 24, 32, 48, 64)] + [
    (s, s, s) for s in (6, 8, 10, 12, 16)
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_auto_mode_starts_equal_reference(shape):
    """Whatever auto mode picks, every paper algorithm's starts are the
    reference loops' starts, on each side of every crossover."""
    instance = _grid(shape, seed=len(shape))
    for name in ALGORITHMS:
        auto = color_with(instance, name, context=ExecutionContext(RuntimeConfig()))
        reference = color_with(instance, name, fast=False)
        assert np.array_equal(auto.starts, reference.starts), name


# ---------------------------------------------------------------- the sweep
def _crossover_tool():
    spec = importlib.util.spec_from_file_location(
        "kernel_crossover", REPO_ROOT / "tools" / "kernel_crossover.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sweep():
    return json.loads(BENCH.read_text())


def test_every_kernel_algorithm_was_swept(sweep):
    assert set(KERNEL_SPECS) <= set(sweep["algorithms"])


@pytest.mark.parametrize("name", sorted(json.loads(BENCH.read_text())["algorithms"]))
def test_kernel_from_is_the_measured_crossover(sweep, name):
    """The registry copies the sweep's threshold, which the tool's rule
    derives from the committed points, with the violations it records."""
    tool = _crossover_tool()
    entry = sweep["algorithms"][name]
    assert REGISTRY.get(name).kernel_from == entry["kernel_from"]
    assert tool.choose_kernel_from(entry["points"]) == entry["kernel_from"]
    assert tool.violations(entry["points"], entry["kernel_from"]) == entry["violations"]


def test_crossover_rule_on_planted_points():
    tool = _crossover_tool()

    def point(n, kernel_s, reference_s):
        return {"n": n, "kernel_s": kernel_s, "reference_s": reference_s}

    points = [point(64, 2.0, 1.0), point(256, 1.0, 1.05), point(1024, 1.0, 4.0)]
    # 256 is a near tie; either side of it is within tolerance, and taking
    # the kernel there costs least relative to the best path.
    assert tool.choose_kernel_from(points) == 256
    assert tool.violations(points, 64) == [points[0]]
    assert tool.violations(points, 2048) == [points[2]]
    never = [point(64, 2.0, 1.0), point(128, 3.0, 1.0)]
    assert tool.choose_kernel_from(never) == 129
