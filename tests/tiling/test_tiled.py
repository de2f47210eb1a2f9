"""End-to-end tiler tests: bit-identity to the monolithic GLL kernel,
output modes, band-granular resume, and failure surfacing."""

import numpy as np
import pytest

from repro.core.algorithms.registry import color_with
from repro.core.problem import IVCInstance
from repro.data import SyntheticWeightSource
from repro.resilience.faults import FaultPlan, FaultPoint, clear_plan, install_plan
from repro.runtime.config import TilingConfig
from repro.tiling import TilingError, color_tiled, plan_tiles, read_tile_log, seam_pass


def _weights(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 100, size=shape, dtype=np.int64)


def _monolithic(weights):
    if weights.ndim == 2:
        instance = IVCInstance.from_grid_2d(weights, name="mono")
    else:
        instance = IVCInstance.from_grid_3d(weights, name="mono")
    return color_with(instance, "GLL")


def _assert_identical(tiled, weights):
    mono = _monolithic(weights)
    assert tiled.maxcolor == mono.maxcolor
    np.testing.assert_array_equal(
        np.asarray(tiled.starts).ravel(), np.asarray(mono.starts).ravel()
    )


def _band_cells(plan, band):
    """Cells the band pass colors for ``band``: its tiles plus the carry."""
    column = int(np.prod(plan.shape[:-1]))
    return sum(t.cells for t in plan.bands()[band]) + (column if band else 0)


def _fail_at_band(band):
    """A fault plan whose ``tiling.band`` error fires first at ``band`` (the
    pass stops there, so later bands never draw)."""
    points = [FaultPoint("tiling.band", "error", 0.5)]
    for seed in range(10_000):
        probe = FaultPlan(seed=seed, points=points)
        fires = [
            probe.draw("tiling.band", f"band-{b}") is not None for b in range(band + 1)
        ]
        if fires == [False] * band + [True]:
            return FaultPlan(seed=seed, points=points)
    raise AssertionError(f"no seed fails first at band {band}")


def _interrupted(weights, tile_shape, band, **kwargs):
    """Run the tiler with a fault at ``band``; return the TilingError."""
    install_plan(_fail_at_band(band))
    try:
        with pytest.raises(TilingError) as excinfo:
            color_tiled(weights, tile_shape=tile_shape, **kwargs)
    finally:
        clear_plan()
    return excinfo.value


class TestBitIdentity:
    @pytest.mark.parametrize(
        "shape,tile_shape",
        [
            ((13, 9), (4, 4)),    # non-divisible
            ((16, 16), (8, 8)),   # exact division
            ((7, 7), (7, 7)),     # single tile
            ((9, 5), (1, 1)),     # tile smaller than the halo margin
            ((1, 8), (3, 3)),     # degenerate line
            ((6, 5, 4), (3, 3, 3)),
            ((4, 4, 4), (1, 1, 1)),
            ((5, 4, 3), (8, 8, 8)),  # single 3D tile
        ],
    )
    def test_tiled_equals_monolithic(self, shape, tile_shape):
        weights = _weights(shape)
        tiled = color_tiled(weights, tile_shape=tile_shape)
        _assert_identical(tiled, weights)
        # Every cell is colored once; each band after the first also
        # recolors the carry column/plane it starts from — nothing more.
        column = int(np.prod(shape[:-1]))
        assert tiled.seam_cells == weights.size + (tiled.seam_bands - 1) * column
        assert tiled.seam_bands == tiled.plan.counts[-1]

    @pytest.mark.parametrize("shape,tile_shape", [((24, 18), (7, 7)),
                                                  ((8, 7, 6), (4, 4, 4))])
    def test_parallel_workers_match(self, shape, tile_shape):
        # ``jobs`` is accepted and ignored: the band pass is the whole tiler.
        weights = _weights(shape, seed=3)
        tiled = color_tiled(weights, tile_shape=tile_shape, jobs=2)
        _assert_identical(tiled, weights)
        assert len(tiled.records) == len(tiled.plan.tiles)

    def test_synthetic_source_never_materializes_the_grid(self):
        source = SyntheticWeightSource((20, 15), seed=7)
        tiled = color_tiled(source, tile_shape=(6, 6))
        full = source.region(((0, 20), (0, 15)))
        _assert_identical(tiled, full)


class TestOutputModes:
    def test_memmap_out_matches_in_memory(self, tmp_path):
        weights = _weights((15, 11), seed=1)
        out = tmp_path / "starts.npy"
        tiled = color_tiled(weights, tile_shape=(5, 5), out=out)
        in_mem = color_tiled(weights, tile_shape=(5, 5))
        np.testing.assert_array_equal(np.asarray(tiled.starts), in_mem.starts)
        np.testing.assert_array_equal(np.load(out), in_mem.starts)

    def test_digest_only_mode_carries_no_starts(self):
        weights = _weights((12, 12), seed=2)
        full = color_tiled(weights, tile_shape=(5, 5))
        lean = color_tiled(weights, tile_shape=(5, 5), assemble=False)
        assert lean.starts is None
        assert lean.digest == full.digest
        assert lean.maxcolor == full.maxcolor


class TestResume:
    def test_resume_adopts_completed_tiles(self, tmp_path):
        weights = _weights((14, 10), seed=4)
        log = tmp_path / "tiles.jsonl"
        first = color_tiled(weights, tile_shape=(5, 5), log_path=log)
        resumed = color_tiled(
            weights, tile_shape=(5, 5),
            log_path=log, resume_from=log, assemble=False,
        )
        assert resumed.resumed_tiles == len(first.plan.tiles)
        assert resumed.digest == first.digest
        assert resumed.maxcolor == first.maxcolor

    def test_stale_log_is_ignored_wholesale(self, tmp_path):
        log = tmp_path / "tiles.jsonl"
        color_tiled(_weights((14, 10), seed=4), tile_shape=(5, 5),
                    log_path=log)
        other = _weights((14, 10), seed=5)  # same plan, different weights
        resumed = color_tiled(other, tile_shape=(5, 5),
                              resume_from=log)
        assert resumed.resumed_tiles == 0
        _assert_identical(resumed, other)

    def test_resume_into_assembled_memory_is_refused(self, tmp_path):
        weights = _weights((14, 10), seed=4)
        log = tmp_path / "tiles.jsonl"
        color_tiled(weights, tile_shape=(5, 5), log_path=log)
        with pytest.raises(ValueError, match="assemble"):
            color_tiled(weights, tile_shape=(5, 5), resume_from=log)

    @pytest.mark.parametrize("shape,tile_shape,band", [
        ((14, 10), (5, 4), 1),
        ((14, 10), (5, 4), 2),
        ((6, 5, 7), (3, 3, 3), 1),
    ])
    def test_fault_at_band_keeps_the_bands_before_it(
        self, tmp_path, shape, tile_shape, band
    ):
        weights = _weights(shape, seed=8)
        error = _interrupted(
            weights, tile_shape, band, log_path=tmp_path / "tiles.jsonl"
        )
        assert [r.pos for r in error.records] == list(range(len(error.records)))
        for record in error.records:
            done = record.index[-1] < band
            assert record.status == ("ok" if done else "error"), record

    @pytest.mark.parametrize("mode", ["out", "digest"])
    @pytest.mark.parametrize("shape,tile_shape,band", [
        ((14, 10), (5, 4), 1),
        ((6, 5, 7), (3, 3, 3), 2),
    ])
    def test_resume_colors_only_the_remaining_bands(
        self, tmp_path, shape, tile_shape, band, mode
    ):
        weights = _weights(shape, seed=9)
        clean = color_tiled(weights, tile_shape=tile_shape)
        log = tmp_path / "tiles.jsonl"
        out = tmp_path / "starts.npy" if mode == "out" else None
        kwargs = {"out": out} if out is not None else {"assemble": False}
        error = _interrupted(weights, tile_shape, band, log_path=log, **kwargs)
        done = {r.pos for r in error.records if r.status == "ok"}

        resumed = color_tiled(
            weights, tile_shape=tile_shape, log_path=log, resume_from=log, **kwargs
        )
        plan = resumed.plan
        assert resumed.resumed_tiles == len(done)
        assert {r.pos for r in resumed.records if r.resumed} == done
        assert resumed.seam_bands == plan.counts[-1] - band
        assert resumed.seam_cells == sum(
            _band_cells(plan, b) for b in range(band, plan.counts[-1])
        )
        assert resumed.digest == clean.digest
        assert resumed.maxcolor == clean.maxcolor
        if out is not None:
            np.testing.assert_array_equal(np.load(out), clean.starts)

        again = color_tiled(
            weights, tile_shape=tile_shape, resume_from=log, **kwargs
        )
        assert again.resumed_tiles == plan.num_tiles
        assert again.seam_cells == 0
        assert again.digest == clean.digest

    def test_crash_while_a_resume_rewrites_its_log(self, tmp_path, monkeypatch):
        # A resume writes the adopted records into its log before coloring;
        # a kill at that first write must not forfeit the completed bands.
        from repro.resilience import durable

        class Killed(BaseException):
            pass

        def killed(*args, **kwargs):
            raise Killed

        weights = _weights((40, 40), seed=12)
        log, out = tmp_path / "tiles.jsonl", tmp_path / "starts.npy"
        clean = color_tiled(weights, tile_shape=(10, 10), log_path=log, out=out)
        with monkeypatch.context() as patched:
            for name in ("append", "publish"):
                patched.setattr(durable, name, killed)
            with pytest.raises(Killed):
                color_tiled(
                    weights, tile_shape=(10, 10), log_path=log, resume_from=log, out=out
                )
        resumed = color_tiled(
            weights, tile_shape=(10, 10), log_path=log, resume_from=log, out=out
        )
        assert resumed.resumed_tiles == 16
        assert resumed.seam_cells == 0
        assert resumed.digest == clean.digest

    @pytest.mark.parametrize("damage", ["truncated", "corrupted"])
    def test_damaged_carry_checkpoint_is_rejected(self, tmp_path, damage):
        weights = _weights((14, 10), seed=10)
        clean = color_tiled(weights, tile_shape=(5, 4))
        log = tmp_path / "tiles.jsonl"
        out = tmp_path / "starts.npy"
        _interrupted(weights, (5, 4), 2, log_path=log, out=out)
        checkpoint = tmp_path / "tiles.jsonl.carry.npy"
        if damage == "truncated":
            checkpoint.write_bytes(checkpoint.read_bytes()[:-8])
        else:
            carry = np.load(checkpoint)
            carry[0] += 1
            np.save(checkpoint, carry)

        resumed = color_tiled(
            weights, tile_shape=(5, 4), log_path=log, resume_from=log, out=out
        )
        assert resumed.resumed_tiles == 0
        assert resumed.seam_cells == weights.size + 2 * weights.shape[0]
        assert resumed.digest == clean.digest
        np.testing.assert_array_equal(np.load(out), clean.starts)

    def test_log_records_every_tile(self, tmp_path):
        from repro.data import as_weight_source

        weights = _weights((14, 10), seed=4)
        log = tmp_path / "tiles.jsonl"
        tiled = color_tiled(weights, tile_shape=(5, 5), log_path=log)
        adopted = read_tile_log(
            log,
            plan_fingerprint=tiled.plan.fingerprint(),
            source_fingerprint=as_weight_source(weights).fingerprint(),
        )
        assert set(adopted) == set(range(len(tiled.plan.tiles)))


class TestFailures:
    def test_failed_tiles_raise_tiling_error(self):
        from repro.resilience.faults import parse_fault_spec

        install_plan(parse_fault_spec("seed=1;tiling.band:error=1.0"))
        try:
            with pytest.raises(TilingError) as excinfo:
                color_tiled(_weights((10, 10)), tile_shape=(5, 5))
            assert excinfo.value.records
        finally:
            clear_plan()

    def test_tiling_config_drives_defaults(self):
        weights = _weights((12, 8), seed=6)
        cfg = TilingConfig(mode="on", tile_shape=(4, 4))
        tiled = color_tiled(weights, tiling=cfg)
        assert tiled.plan.tile_shape == (4, 4)
        _assert_identical(tiled, weights)


class TestSeamPassCarry:
    """``seam_pass`` rejects a resume it cannot color before coloring it."""

    source = SyntheticWeightSource((16, 16), seed=2)

    def _resume(self, carry):
        plan = plan_tiles((16, 16), (8, 8))
        return seam_pass(self.source, plan, start_band=1, carry=carry)

    def test_missing_carry_is_rejected(self):
        with pytest.raises(ValueError, match="needs a carry"):
            self._resume(None)

    @pytest.mark.parametrize("carry", [np.array([3]), np.zeros((16, 1)), np.zeros(15)])
    def test_wrong_shaped_carry_is_rejected(self, carry):
        with pytest.raises(ValueError, match="carry shape"):
            self._resume(carry)
