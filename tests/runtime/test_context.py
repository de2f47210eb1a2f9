"""ExecutionContext behavior: ambient resolution, children, scoped state."""

import asyncio
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import (
    ExecutionContext,
    get_context,
    resolve_fast,
    set_default_context,
    use_context,
)


@pytest.fixture(autouse=True)
def _fresh_default():
    """Isolate the process-default context."""
    set_default_context(None)
    yield
    set_default_context(None)


class TestAmbientResolution:
    def test_default_context_is_lazy_and_stable(self):
        first = get_context()
        assert get_context() is first

    def test_use_context_wins_over_default(self):
        ctx = ExecutionContext(RuntimeConfig(max_cell_retries=7))
        with use_context(ctx):
            assert get_context() is ctx
        assert get_context() is not ctx

    def test_use_context_nests_and_restores(self):
        outer = ExecutionContext()
        inner = ExecutionContext()
        with use_context(outer):
            with use_context(inner):
                assert get_context() is inner
            assert get_context() is outer

    def test_set_default_context_replaces_process_default(self):
        ctx = ExecutionContext()
        set_default_context(ctx)
        assert get_context() is ctx
        set_default_context(None)
        assert get_context() is not ctx

    def test_asyncio_tasks_inherit_current_context(self):
        ctx = ExecutionContext()

        async def inner():
            return get_context()

        async def run():
            with use_context(ctx):
                return await asyncio.create_task(inner())

        assert asyncio.run(run()) is ctx

    def test_plain_threads_do_not_inherit(self):
        """Documented caveat: executor threads must re-enter use_context."""
        ctx = ExecutionContext()
        seen = []
        with use_context(ctx):
            t = threading.Thread(target=lambda: seen.append(get_context()))
            t.start()
            t.join()
        assert seen[0] is not ctx


class TestChild:
    def test_child_shares_scoped_state(self):
        parent = ExecutionContext()
        child = parent.child(metrics=MetricsRegistry())
        sentinel = object()
        assert parent.scoped("k", lambda: sentinel) is sentinel
        assert child.scoped("k", lambda: object()) is sentinel

    def test_child_swaps_metrics_keeps_config(self):
        parent = ExecutionContext(RuntimeConfig(max_cell_retries=3))
        metrics = MetricsRegistry()
        child = parent.child(metrics=metrics)
        assert child.metrics is metrics
        assert child.metrics is not parent.metrics
        assert child.config is parent.config

    def test_child_can_swap_config(self):
        parent = ExecutionContext()
        child = parent.child(config=RuntimeConfig(fast_paths=False))
        assert child.config.fast_paths is False
        assert parent.config.fast_paths is True


class TestScopedState:
    def test_factory_runs_once(self):
        ctx = ExecutionContext()
        calls = []
        for _ in range(3):
            ctx.scoped("cache", lambda: calls.append(1) or {"built": True})
        assert calls == [1]

    def test_clear_scoped_rebuilds(self):
        ctx = ExecutionContext()
        first = ctx.scoped("cache", dict)
        ctx.clear_scoped("cache")
        assert ctx.scoped("cache", dict) is not first

    def test_keys_are_independent(self):
        ctx = ExecutionContext()
        a = ctx.scoped("a", dict)
        b = ctx.scoped("b", dict)
        assert a is not b

    def test_scoped_is_thread_safe(self):
        ctx = ExecutionContext()
        built = []
        barrier = threading.Barrier(8)

        def hit():
            barrier.wait()
            ctx.scoped("cache", lambda: built.append(1) or object())

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1


class TestInstallFaults:
    def test_empty_spec_preserves_installed_plan(self):
        from repro.resilience.faults import (
            active_plan,
            clear_plan,
            install_plan,
            parse_fault_spec,
        )

        plan = parse_fault_spec("seed=1;engine.cell:crash=0.5,max=1")
        install_plan(plan)
        try:
            ExecutionContext(RuntimeConfig(fault_spec="   ")).install_faults()
            assert active_plan() is plan
        finally:
            clear_plan()

    def test_nonempty_spec_installs(self):
        from repro.resilience.faults import active_plan, clear_plan

        spec = "seed=9;service.compute:error=1.0,max=2"
        try:
            ExecutionContext(RuntimeConfig(fault_spec=spec)).install_faults()
            plan = active_plan()
            assert plan is not None and plan.seed == 9
        finally:
            clear_plan()


class TestResolveFast:
    def test_follows_config_mode(self):
        on = ExecutionContext(RuntimeConfig(fast_paths=True))
        off = ExecutionContext(RuntimeConfig(fast_paths=False))
        assert resolve_fast(None, context=on) is True
        assert resolve_fast(None, context=off) is False
        with use_context(off):
            assert resolve_fast() is False

    def test_explicit_argument_wins(self):
        off = ExecutionContext(RuntimeConfig(fast_paths=False))
        assert resolve_fast(True, context=off) is True
        on = ExecutionContext(RuntimeConfig(fast_paths=True))
        assert resolve_fast(False, context=on) is False
