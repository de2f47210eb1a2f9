"""Unit tests for the dirty-region recolor engine (:mod:`repro.incremental`)."""

import numpy as np
import pytest

from repro.incremental.engine import (
    SUPPORTED_ALGORITHMS,
    RecolorValidationError,
    full_recolor,
    recolor_grid,
)
from repro.kernels import native
from repro.runtime.config import IncrementalConfig, RuntimeConfig
from repro.runtime.context import ExecutionContext

#: The walk is compiled C only: with no C compiler every delta falls back
#: (``test_no_compiler_falls_back_bit_identical``).
needs_walk = pytest.mark.skipif(
    native.path() != "native", reason="the walk needs the compiled library"
)


def _grid(shape, seed=0, high=20):
    rng = np.random.default_rng(seed)
    return rng.integers(1, high, size=shape).astype(np.int64)


def _delta(weights, idx, seed=1, high=20):
    rng = np.random.default_rng(seed)
    out = weights.copy()
    out.ravel()[np.asarray(idx)] = rng.integers(1, high, size=len(idx))
    return out


class TestRecolorGrid:
    def test_supported_algorithm_set(self):
        assert SUPPORTED_ALGORITHMS == frozenset({"GLL", "GZO", "GLF"})

    @pytest.mark.parametrize("algorithm", sorted(SUPPORTED_ALGORITHMS))
    def test_single_cell_delta_bit_identical_2d(self, algorithm):
        weights = _grid((24, 24))
        new_weights = _delta(weights, [100])
        base = full_recolor(weights, algorithm)
        outcome = recolor_grid(new_weights, base, [100], algorithm=algorithm)
        assert np.array_equal(outcome.starts, full_recolor(new_weights, algorithm))
        assert outcome.algorithm == algorithm
        assert outcome.cells_dirty == 1

    @pytest.mark.parametrize("algorithm", sorted(SUPPORTED_ALGORITHMS))
    def test_single_cell_delta_bit_identical_3d(self, algorithm):
        weights = _grid((8, 8, 8))
        new_weights = _delta(weights, [77])
        base = full_recolor(weights, algorithm)
        outcome = recolor_grid(new_weights, base, [77], algorithm=algorithm)
        assert np.array_equal(outcome.starts, full_recolor(new_weights, algorithm))
        assert outcome.starts.shape == (8, 8, 8)

    def test_empty_delta_is_a_no_op_even_for_unsupported(self):
        weights = _grid((6, 6))
        base = full_recolor(weights, "BD")
        outcome = recolor_grid(weights, base, [], algorithm="BD")
        assert outcome.mode == "incremental"
        assert outcome.cells_changed == 0
        assert outcome.fallback_reason is None
        assert np.array_equal(outcome.starts, base)

    def test_unsupported_algorithm_falls_back(self):
        weights = _grid((10, 10))
        new_weights = _delta(weights, [5])
        base = full_recolor(weights, "BD")
        outcome = recolor_grid(new_weights, base, [5], algorithm="BD")
        assert outcome.mode == "fallback"
        assert outcome.fallback_reason == "unsupported-algorithm"
        assert np.array_equal(outcome.starts, full_recolor(new_weights, "BD"))

    @needs_walk
    def test_tiny_budget_falls_back_with_cone_budget_reason(self):
        # Every cell dirty is past the cutoff for every order.
        weights = _grid((16, 16))
        dirty = np.arange(weights.size)
        new_weights = _delta(weights, dirty)
        for algorithm in sorted(SUPPORTED_ALGORITHMS):
            base = full_recolor(weights, algorithm)
            outcome = recolor_grid(new_weights, base, dirty, algorithm=algorithm)
            assert outcome.mode == "fallback"
            assert outcome.fallback_reason == "cone-budget"
            assert np.array_equal(
                outcome.starts, full_recolor(new_weights, algorithm)
            )

    @needs_walk
    def test_walk_past_budget_falls_back(self, monkeypatch):
        # 60 scattered dirty cells fit the 64-cell cutoff of a 16x16 grid,
        # but with their 1-rings the GLF walk outgrows it.
        from repro.incremental import engine

        results = []
        real = engine.propagate_cone
        monkeypatch.setattr(
            engine, "propagate_cone",
            lambda *a, **k: results.append(real(*a, **k)) or results[-1],
        )
        weights = _grid((16, 16))
        dirty = np.arange(0, weights.size, 4)[:60]
        new_weights = _delta(weights, dirty)
        base = full_recolor(weights, "GLF")
        outcome = recolor_grid(new_weights, base, dirty, algorithm="GLF")
        assert results == [None]
        assert outcome.mode == "fallback"
        assert outcome.fallback_reason == "cone-budget"
        assert np.array_equal(outcome.starts, full_recolor(new_weights, "GLF"))

    @needs_walk
    def test_dense_delta_routes_to_full_recolor_without_walking(
        self, monkeypatch
    ):
        from repro.incremental import engine

        def no_walk(*args, **kwargs):
            raise AssertionError("a seed set past the budget must not walk")

        monkeypatch.setattr(engine, "propagate_cone", no_walk)
        ctx = ExecutionContext()
        weights = _grid((16, 16))
        dirty = np.arange(0, weights.size, 3)  # 86 seeds > 25% of 256
        new_weights = _delta(weights, dirty)
        base = full_recolor(weights, "GLF", context=ctx)
        outcome = recolor_grid(
            new_weights, base, dirty, algorithm="GLF", context=ctx
        )
        assert outcome.mode == "fallback"
        assert outcome.fallback_reason == "cone-budget"
        assert np.array_equal(
            outcome.starts, full_recolor(new_weights, "GLF")
        )
        assert ctx.metrics.snapshot()["counters"].get("recolor_cone_cells", 0) == 0

    @needs_walk
    def test_glf_seeds_include_the_ring_for_the_budget(self, monkeypatch):
        # 20 scattered dirty cells are under the 64-cell cutoff, but the
        # walk places their 1-rings too: past the cutoff GLF stops and
        # falls back.  GZO's walk never stops.
        from repro.incremental import engine

        weights = _grid((16, 16))
        dirty = np.arange(17, 256, 13)[:20]
        new_weights = _delta(weights, dirty)
        walked = []
        real = engine.propagate_cone
        monkeypatch.setattr(
            engine, "propagate_cone",
            lambda *a, **k: walked.append(real(*a, **k)) or walked[-1],
        )
        for algorithm, mode in (("GLF", "fallback"), ("GZO", "incremental")):
            walked.clear()
            base = full_recolor(weights, algorithm)
            outcome = recolor_grid(new_weights, base, dirty, algorithm=algorithm)
            assert len(walked) == 1
            assert outcome.mode == mode
            assert np.array_equal(
                outcome.starts, full_recolor(new_weights, algorithm)
            )
        # A single interior dirty cell: GLF places its whole 1-ring.
        base = full_recolor(weights, "GLF")
        one = _delta(weights, [17 + 16 * 3])
        outcome = recolor_grid(one, base, [17 + 16 * 3], algorithm="GLF")
        assert outcome.cells_recomputed >= 9
        assert np.array_equal(outcome.starts, full_recolor(one, "GLF"))

    @needs_walk
    def test_gll_never_falls_back(self):
        # A GLL or GZO walk never stops once it starts (a delta within the
        # cutoff), even when it cascades over the whole grid.
        ctx = ExecutionContext()
        deltas = (
            ((16, 16), np.arange(0, 256, 4)),
            ((16, 16), [3]),
            ((6, 5, 4), [0, 119]),
        )
        for algorithm in ("GLL", "GZO"):
            for shape, dirty in deltas:
                weights = _grid(shape)
                new_weights = _delta(weights, dirty)
                base = full_recolor(weights, algorithm)
                outcome = recolor_grid(
                    new_weights, base, dirty, algorithm=algorithm, context=ctx,
                )
                assert outcome.mode == "incremental"
                assert outcome.fallback_reason is None
                assert np.array_equal(
                    outcome.starts, full_recolor(new_weights, algorithm)
                )
        assert ctx.metrics.snapshot()["counters"].get("recolor_fallbacks", 0) == 0

    @needs_walk
    def test_gll_recomputes_the_suffix_from_the_first_dirty_column(self):
        weights = _grid((16, 16))
        dirty = [16 * 5 + 9, 16 * 12 + 11]  # outer (last-axis) indices 9, 11
        new_weights = _delta(weights, dirty)
        base = full_recolor(weights, "GLL")
        outcome = recolor_grid(new_weights, base, dirty, algorithm="GLL")
        # The scan reaches (5, 9) at position 9 * 16 + 5 of its order, and
        # the walk places nothing before it; every cell is its own key.
        assert outcome.cells_recomputed <= 16 * 16 - (9 * 16 + 5)
        assert outcome.levels_touched == outcome.cells_recomputed
        assert np.array_equal(outcome.starts[:, :9], base[:, :9])
        assert np.array_equal(outcome.starts, full_recolor(new_weights, "GLL"))

    @needs_walk
    @pytest.mark.parametrize("algorithm", ["GLL", "GZO"])
    @pytest.mark.parametrize("shape", [(4, 5), (1, 7), (3, 2, 3)])
    def test_suffix_pass_from_every_position_matches_full_recolor(self, algorithm, shape):
        # One dirty cell at each position of the order in turn, zero
        # weights included: the walk places only cells of the suffix.
        from repro.core.orderings import line_by_line_order, zorder_order
        from repro.core.problem import IVCInstance

        weights = _grid(shape, seed=5)
        weights.ravel()[::4] = 0
        pick = line_by_line_order if algorithm == "GLL" else zorder_order
        order = np.asarray(pick(IVCInstance.from_grid(weights)))
        base = full_recolor(weights, algorithm)
        for pos, cell in enumerate(order.tolist()):
            new_weights = _delta(weights, [cell], seed=pos, high=9)
            outcome = recolor_grid(new_weights, base, [cell], algorithm=algorithm)
            assert outcome.mode == "incremental"
            assert 1 <= outcome.cells_recomputed <= weights.size - pos
            assert np.array_equal(outcome.starts, full_recolor(new_weights, algorithm)), pos

    @pytest.mark.parametrize("algorithm", sorted(SUPPORTED_ALGORITHMS))
    def test_no_compiler_falls_back_bit_identical(self, algorithm, monkeypatch):
        weights = _grid((12, 12))
        dirty = [5, 77]
        new_weights = _delta(weights, dirty)
        truth = full_recolor(new_weights, algorithm)
        base = full_recolor(weights, algorithm)
        monkeypatch.setattr(native, "_library", lambda: None)
        outcome = recolor_grid(new_weights, base, dirty, algorithm=algorithm)
        assert outcome.mode == "fallback"
        assert outcome.fallback_reason == "no-compiler"
        assert np.array_equal(outcome.starts, truth)

    def test_maxcolor_matches_starts_plus_weights(self):
        weights = _grid((12, 12))
        new_weights = _delta(weights, [3, 17, 60])
        base = full_recolor(weights, "GLF")
        outcome = recolor_grid(new_weights, base, [3, 17, 60], algorithm="GLF")
        assert outcome.maxcolor == int((outcome.starts + new_weights).max())

    @needs_walk
    def test_stats_is_json_ready_provenance(self):
        weights = _grid((8, 8))
        new_weights = _delta(weights, [9])
        base = full_recolor(weights, "GLL")
        stats = recolor_grid(new_weights, base, [9], algorithm="GLL").stats()
        assert set(stats) == {
            "mode", "algorithm", "cells_dirty", "cells_recomputed",
            "cells_changed", "levels_touched", "spliced", "fallback_reason",
            "elapsed",
        }
        assert stats["mode"] == "incremental"
        assert stats["cells_dirty"] == 1
        import json

        json.dumps(stats)  # must not raise

    @needs_walk
    def test_validate_passes_on_correct_incremental(self):
        weights = _grid((10, 10))
        new_weights = _delta(weights, [42])
        base = full_recolor(weights, "GLL")
        outcome = recolor_grid(
            new_weights, base, [42], algorithm="GLL", validate=True
        )
        assert outcome.mode == "incremental"

    def test_validate_raises_on_corrupt_base(self):
        # An empty delta echoes the base coloring back, so a corrupt base
        # with validate=True must trip the divergence check.
        weights = _grid((6, 6))
        corrupt = np.zeros_like(weights)
        with pytest.raises(RecolorValidationError):
            recolor_grid(weights, corrupt, [], algorithm="GLL", validate=True)

    def test_dirty_out_of_range_rejected(self):
        weights = _grid((4, 4))
        base = full_recolor(weights, "GLL")
        with pytest.raises(ValueError, match="out of range"):
            recolor_grid(weights, base, [16], algorithm="GLL")
        with pytest.raises(ValueError, match="out of range"):
            recolor_grid(weights, base, [-1], algorithm="GLL")

    def test_boolean_mask_dirty_rejected(self):
        """A mask cast to int64 would become the indices {0, 1} and give a
        silently wrong recolor; only integer indices are accepted."""
        from repro import api

        weights = _grid((64, 64))
        new_weights = _delta(weights, [1000, 3000])
        base = api.color(weights, "GLL")
        with pytest.raises(ValueError, match="flatnonzero"):
            api.recolor(new_weights, base, dirty=(new_weights != weights))
        with pytest.raises(ValueError, match="integer"):
            recolor_grid(new_weights, base.starts, [1000.0], algorithm="GLL")
        mask = (new_weights != weights).ravel()
        patched = api.recolor(new_weights, base, dirty=np.flatnonzero(mask))
        assert np.array_equal(patched.starts, full_recolor(new_weights, "GLL"))

    @pytest.mark.parametrize("algorithm", ["GLL", "GZO", "GLF"])
    def test_negative_weights_rejected(self, algorithm):
        weights = _grid((64, 64))
        base = full_recolor(weights, algorithm)
        new_weights = weights.copy()
        new_weights.ravel()[100] = -5
        with pytest.raises(ValueError, match="non-negative"):
            recolor_grid(new_weights, base, [100], algorithm=algorithm)

    def test_shape_mismatch_rejected(self):
        weights = _grid((4, 4))
        with pytest.raises(ValueError, match="shape"):
            recolor_grid(weights, np.zeros((5, 5), dtype=np.int64), [0])

    def test_extra_clean_dirty_indices_are_safe(self):
        # Claiming clean cells dirty may only widen the cone, never change
        # the answer.
        weights = _grid((16, 16))
        new_weights = _delta(weights, [30])
        base = full_recolor(weights, "GLL")
        wide = recolor_grid(
            new_weights, base, [30, 31, 32, 200], algorithm="GLL"
        )
        assert np.array_equal(wide.starts, full_recolor(new_weights, "GLL"))

    @needs_walk
    def test_metrics_counters_flow_to_context(self):
        ctx = ExecutionContext()
        weights = _grid((16, 16))
        new_weights = _delta(weights, [7])
        base = full_recolor(weights, "GLL", context=ctx)
        recolor_grid(new_weights, base, [7], algorithm="GLL", context=ctx)
        recolor_grid(new_weights, base, [7], algorithm="BD", context=ctx)
        snap = ctx.metrics.snapshot()
        counters = snap["counters"]
        assert counters["recolor_calls"] == 2
        assert counters["recolor_fallbacks"] == 1
        assert counters["recolor_cone_cells"] >= 1
        assert snap["histograms"]["recolor_splice_seconds"]["count"] == 2


class TestIncrementalConfig:
    def test_defaults(self):
        cfg = IncrementalConfig()
        assert cfg.validate is False
        assert cfg.session_limit == 64
        assert cfg.session_ttl == 900.0

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCR_VALIDATE", "1")
        monkeypatch.setenv("REPRO_INCR_SESSION_LIMIT", "8")
        monkeypatch.setenv("REPRO_INCR_SESSION_TTL", "12.5")
        cfg = IncrementalConfig.from_env()
        assert cfg == IncrementalConfig(
            validate=True, session_limit=8, session_ttl=12.5,
        )

    def test_kwargs_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCR_SESSION_LIMIT", "8")
        assert IncrementalConfig.from_env(session_limit=3).session_limit == 3
        assert IncrementalConfig.from_env(session_limit=None).session_limit == 8

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError, match="unknown"):
            IncrementalConfig.from_env(bogus=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            IncrementalConfig(session_limit=0)
        with pytest.raises(ValueError):
            IncrementalConfig(session_ttl=0.0)

    def test_with_overrides_skips_none(self):
        cfg = IncrementalConfig()
        assert cfg.with_overrides(validate=None) is cfg
        assert cfg.with_overrides(validate=True).validate is True

    def test_rides_on_runtime_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCR_SESSION_LIMIT", "5")
        cfg = RuntimeConfig.from_env()
        assert cfg.incremental.session_limit == 5

    def test_runtime_config_normalizes_dict(self):
        cfg = RuntimeConfig(incremental={"session_limit": 5})
        assert isinstance(cfg.incremental, IncrementalConfig)
        assert cfg.incremental.session_limit == 5

    def test_engine_reads_context_config(self):
        # validate comes from the context's config: a corrupt base echoed
        # back by an empty delta trips the diff.
        ctx = ExecutionContext(
            RuntimeConfig(incremental=IncrementalConfig(validate=True))
        )
        weights = _grid((6, 6))
        with pytest.raises(RecolorValidationError):
            recolor_grid(
                weights, np.zeros_like(weights), [], algorithm="GLF", context=ctx
            )
