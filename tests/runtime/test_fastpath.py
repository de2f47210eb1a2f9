"""The kernel decision: explicit ``fast=`` > ``RuntimeConfig.fast_paths`` > env.

Primitives resolve ``fast=None`` against the current context
(:func:`~repro.runtime.context.resolve_fast`).  ``color_with`` runs a call
whose ``fast`` differs from the config under a child context carrying it;
the child shares the caller's substrate caches and metrics, and leaves the
caller's config as it was.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.algorithms.greedy import greedy_line_by_line
from repro.core.algorithms.registry import REGISTRY, AlgorithmSpec, color_with
from repro.core.problem import IVCInstance
from repro.kernels import native
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext, resolve_fast, set_default_context


@pytest.fixture(autouse=True)
def _fresh_default():
    """Each test starts with a fresh default context."""
    set_default_context(None)
    yield
    set_default_context(None)


def _ctx(enabled):
    return ExecutionContext(RuntimeConfig(fast_paths=enabled))


def _tiny(shape=(2, 2)):
    return IVCInstance.from_grid_2d(
        np.random.default_rng(0).integers(1, 9, size=shape)
    )


def _counters(ctx):
    return ctx.metrics.snapshot()["counters"]


@pytest.fixture
def probe():
    """Register ``PROBE``: GLL that records, per thread, the decision its
    primitives see when they pass ``fast=None``."""
    seen = threading.local()

    def fn(instance):
        seen.decision = resolve_fast()
        return greedy_line_by_line(instance)

    REGISTRY.register(AlgorithmSpec("PROBE", fn, kernels=True))
    try:
        yield seen
    finally:
        REGISTRY.unregister("PROBE")


class TestExplicitArgument:
    def test_beats_everything(self):
        assert resolve_fast(True, context=_ctx(False)) is True
        assert resolve_fast(False, context=_ctx(True)) is False
        off, on = _ctx(False), _ctx(True)
        color_with(_tiny(), "GLL", fast=True, context=off)
        color_with(_tiny(), "GLL", fast=False, context=on)
        assert _counters(off)["registry.dispatch_fast"] == 1
        assert _counters(on)["registry.dispatch_reference"] == 1

    def test_resolve_fast_normalizes(self):
        assert resolve_fast(1, context=_ctx(False)) is True
        assert resolve_fast(0, context=_ctx(True)) is False
        off, on = _ctx(False), _ctx(True)
        color_with(_tiny(), "GLL", fast=1, context=off)
        color_with(_tiny(), "GLL", fast=0, context=on)
        assert _counters(off)["registry.dispatch_fast"] == 1
        assert _counters(on)["registry.dispatch_reference"] == 1


class TestLegacySwitch:
    """``color_with(fast=...)``: what remains of the old switch API now that
    the process-wide ``set_fast_paths`` and the scoped ``fast_paths()``
    block are gone.  The call is the block: its child context holds for
    the call's extent and nothing outlives it."""

    def test_beats_config_mode(self, probe):
        for enabled in (True, False):
            ctx = _ctx(not enabled)
            color_with(_tiny(), "PROBE", fast=enabled, context=ctx)
            assert probe.decision is enabled

    def test_block_decides_without_a_size_check(self, probe):
        """A decision, not a request: ``fast=True`` runs the kernels on a
        one-cell grid under an off config."""
        off = _ctx(False)
        spec = REGISTRY.get("GLL")
        tiny = _tiny((1, 1))
        assert spec.runs_kernel(tiny, context=off) is False
        assert spec.runs_kernel(tiny, True, context=off) is True
        color_with(tiny, "PROBE", fast=True, context=off)
        assert probe.decision is True
        assert _counters(off)["registry.dispatch_fast"] == 1

    def test_scoped_override_restores_previous_state(self):
        ctx = ExecutionContext(RuntimeConfig())
        config = ctx.config
        color_with(_tiny((6, 6)), "BDP", fast=False, context=ctx)
        assert ctx.config is config
        assert ctx.config.fast_paths is True
        assert resolve_fast(None, context=ctx) is True

    def test_scoped_override_nests(self, probe):
        """An algorithm that calls ``color_with(fast=False)`` inside a
        ``fast=True`` call sees its own decision again once the inner call
        returns."""
        seen = []

        def outer(instance):
            seen.append(resolve_fast())
            color_with(instance, "PROBE", fast=False)
            seen.append(probe.decision)
            seen.append(resolve_fast())
            return greedy_line_by_line(instance)

        REGISTRY.register(AlgorithmSpec("OUTER", outer, kernels=True))
        try:
            off = _ctx(False)
            color_with(_tiny(), "OUTER", fast=True, context=off)
        finally:
            REGISTRY.unregister("OUTER")
        assert seen == [True, False, True]
        assert off.config.fast_paths is False

    def test_no_child_when_fast_matches_the_config(self, monkeypatch):
        children = []
        real = ExecutionContext.child

        def spy(self, **kwargs):
            children.append(kwargs["config"].fast_paths)
            return real(self, **kwargs)

        monkeypatch.setattr(ExecutionContext, "child", spy)
        ctx = _ctx(True)
        color_with(_tiny(), "GLL", context=ctx)
        color_with(_tiny(), "GLL", fast=True, context=ctx)
        assert children == []
        color_with(_tiny(), "GLL", fast=False, context=ctx)
        assert children == [False]

    def test_override_shares_the_substrate_cache(self):
        """A reference call on a cached shape builds no second substrate,
        and kernels asked for under an off config fill the caller's cache."""
        ctx = ExecutionContext(RuntimeConfig())
        instance = _tiny((7, 5))
        color_with(instance, "GLF", context=ctx)
        assert _counters(ctx)["substrate.substrates.misses"] == 1
        color_with(instance, "GLF", fast=False, context=ctx)
        color_with(instance, "GLF", context=ctx)
        counters = _counters(ctx)
        assert counters["substrate.substrates.misses"] == 1
        assert counters["substrate.substrates.hits"] == 1

        off = _ctx(False)
        color_with(instance, "GLF", fast=True, context=off)
        color_with(instance, "GLF", fast=True, context=off)
        counters = _counters(off)
        assert counters["substrate.substrates.misses"] == 1
        assert counters["substrate.substrates.hits"] == 1


class TestThreadedOverride:
    def test_overlapping_blocks_on_two_threads_stay_private(self, probe):
        """Two threads inside ``color_with`` on one shared context, one with
        ``fast=True`` and one with ``fast=False``, interleaved: each sees
        only its own decision, and the shared config is untouched."""
        shared = _ctx(True)
        a_in, b_in = threading.Event(), threading.Event()
        seen = {}

        def gate(name, mine, theirs):
            def fn(instance):
                mine.set()
                theirs.wait(5)
                seen[name] = resolve_fast()
                return greedy_line_by_line(instance)

            return fn

        REGISTRY.register(AlgorithmSpec("GATE-A", gate("a", a_in, b_in), kernels=True))
        REGISTRY.register(AlgorithmSpec("GATE-B", gate("b", b_in, a_in), kernels=True))
        try:
            threads = [
                threading.Thread(
                    target=color_with,
                    args=(_tiny(), name),
                    kwargs={"fast": fast, "context": shared},
                )
                for name, fast in (("GATE-A", True), ("GATE-B", False))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
                assert not t.is_alive()
        finally:
            REGISTRY.unregister("GATE-A")
            REGISTRY.unregister("GATE-B")
        assert seen == {"a": True, "b": False}
        assert shared.config.fast_paths is True
        counters = _counters(shared)
        assert counters["registry.dispatch_fast"] == 1
        assert counters["registry.dispatch_reference"] == 1

    def test_many_threads_churning_blocks_never_cross(self, probe, monkeypatch):
        shared = ExecutionContext(RuntimeConfig())
        instance = _tiny((3, 3))
        calls = 100
        crossed = []
        native_calls = []
        loop = native.first_fit

        def spy(*args):
            native_calls.append(threading.get_ident())
            return loop(*args)

        monkeypatch.setattr(native, "first_fit", spy)

        def churn(value):
            for _ in range(calls):
                color_with(instance, "PROBE", fast=value, context=shared)
                if probe.decision is not value:
                    crossed.append(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(i % 2 == 0,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert crossed == []
        fast_threads = {t.ident for i, t in enumerate(threads) if i % 2 == 0}
        assert len(native_calls) == 4 * calls
        assert set(native_calls) == fast_threads
        counters = _counters(shared)
        assert counters["registry.dispatch_fast"] == 4 * calls
        assert counters["registry.dispatch_reference"] == 4 * calls
        assert shared.config.fast_paths is True


class TestConfigMode:
    def test_off_on_auto(self):
        """The config is a bool; the retired ``"auto"`` mode is refused."""
        assert resolve_fast(None, context=_ctx(False)) is False
        assert resolve_fast(None, context=_ctx(True)) is True
        with pytest.raises(ValueError, match="fast_paths"):
            RuntimeConfig(fast_paths="auto")

    def test_enabled_means_not_off(self):
        """Bare primitives run their kernels unless the config is off."""
        assert resolve_fast(None, context=ExecutionContext()) is True
        assert resolve_fast(None, context=_ctx(False)) is False


class TestEnvironmentLayer:
    def test_ambient_context_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATHS", "0")
        set_default_context(None)  # force a rebuild under the patched env
        assert resolve_fast(None) is False
        monkeypatch.setenv("REPRO_FAST_PATHS", "1")
        set_default_context(None)
        assert resolve_fast(None) is True

    def test_explicit_context_ignores_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATHS", "0")
        assert resolve_fast(None, context=_ctx(True)) is True
