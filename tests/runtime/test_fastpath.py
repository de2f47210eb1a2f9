"""Fast-path precedence: explicit arg > scoped block > config mode > env."""

import pytest

from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext, set_default_context
from repro.runtime.fastpath import fast_paths, resolve_fast_for


@pytest.fixture(autouse=True)
def _fresh_default():
    """Each test starts with a fresh default context."""
    set_default_context(None)
    yield
    set_default_context(None)


def _ctx(mode):
    return ExecutionContext(RuntimeConfig(fast_paths=mode))


def _large(ctx):
    """The decision a bare primitive takes (auto mode runs its kernel)."""
    return resolve_fast_for(None, context=ctx) is not False


class TestExplicitArgument:
    def test_beats_everything(self):
        with fast_paths(False):
            assert resolve_fast_for(True, context=_ctx("off")) is True
        with fast_paths(True):
            assert resolve_fast_for(False, context=_ctx("on")) is False

    def test_resolve_fast_normalizes(self):
        assert resolve_fast_for(1, context=_ctx("off")) is True
        assert resolve_fast_for(0, context=_ctx("on")) is False


class TestLegacySwitch:
    """The scoped ``fast_paths()`` block: what remains of the old switch
    API now that the process-wide ``set_fast_paths`` is gone."""

    def test_beats_config_mode(self):
        with fast_paths(False):
            assert _large(_ctx("on")) is False
        with fast_paths(True):
            assert _large(_ctx("off")) is True

    def test_block_decides_without_a_size_check(self):
        """A block is a decision, not a request: under it auto mode's
        per-algorithm size rule never runs, however small the instance."""
        import numpy as np

        from repro.core.algorithms.registry import REGISTRY
        from repro.core.problem import IVCInstance

        spec = REGISTRY.get("GLL")
        tiny = IVCInstance.from_grid_2d(np.ones((2, 2), dtype=np.int64))
        auto = _ctx("auto")
        assert tiny.num_vertices < spec.kernel_from
        assert spec.runs_kernel(tiny, context=auto) is False
        with fast_paths(True):
            assert resolve_fast_for(None, context=auto) is True
            assert spec.runs_kernel(tiny, context=auto) is True

    def test_scoped_override_restores_previous_state(self):
        ctx = _ctx("on")
        with fast_paths(False):
            assert _large(ctx) is False
        # no block active any more -> back to following the config
        assert _large(ctx) is True

    def test_scoped_override_nests(self):
        off = _ctx("off")
        with fast_paths(True):
            with fast_paths(False):
                assert _large(off) is False
            assert _large(off) is True
        assert _large(off) is False


class TestThreadedOverride:
    def test_overlapping_blocks_on_two_threads_stay_private(self):
        """Interleave A-enter, B-enter, A-exit, B-exit across two threads:
        each sees only its own block, and nothing is left set afterwards."""
        import threading

        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with fast_paths(True):
                a_in.set()
                b_in.wait(5)
                seen["a"] = _large(_ctx("off"))
            a_out.set()
            seen["a_after"] = _large(_ctx("off"))

        def thread_b():
            a_in.wait(5)
            with fast_paths(False):
                b_in.set()
                a_out.wait(5)
                seen["b"] = _large(_ctx("on"))
            seen["b_after"] = _large(_ctx("on"))

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert seen == {"a": True, "a_after": False, "b": False, "b_after": True}
        assert _large(_ctx("off")) is False
        assert _large(_ctx("on")) is True

    def test_many_threads_churning_blocks_never_cross(self):
        import sys
        import threading

        off, on = _ctx("off"), _ctx("on")
        crossed = []

        def churn(value):
            for _ in range(300):
                with fast_paths(value):
                    # The opposite config mode, so only the block decides.
                    if _large(on if not value else off) is not value:
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
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert crossed == []
        assert _large(off) is False
        assert _large(on) is True


class TestConfigMode:
    def test_off_on_auto(self):
        assert resolve_fast_for(None, context=_ctx("off")) is False
        assert resolve_fast_for(None, context=_ctx("on")) is True
        # Auto mode decides nothing here: the size rule is per algorithm.
        assert resolve_fast_for(None, context=_ctx("auto")) is None

    def test_enabled_means_not_off(self):
        """Bare primitives run their kernels unless the mode is off."""
        assert _large(_ctx("off")) is False
        assert _large(_ctx("on")) is True
        assert _large(_ctx("auto")) is True


class TestEnvironmentLayer:
    def test_ambient_context_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATHS", "off")
        set_default_context(None)  # force a rebuild under the patched env
        assert resolve_fast_for(None) is False
        monkeypatch.setenv("REPRO_FAST_PATHS", "on")
        set_default_context(None)
        assert resolve_fast_for(None) is True

    def test_explicit_context_ignores_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATHS", "off")
        assert resolve_fast_for(None, context=_ctx("on")) is True

