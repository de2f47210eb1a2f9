"""Crash-point matrix over the four durable boundaries.

Every durable write goes through :mod:`repro.resilience.durable` (an
``append`` or a ``publish``).  For each boundary — the ``run_grid`` run
log, the ``color_tiled`` log with its carry checkpoint, the session journal
with its checkpoint, and a campaign's ``sessions.jsonl`` — an uninterrupted
run is counted write by write.  Then, for each write index ``k``, the run
is repeated with write ``k`` *torn* (a prefix reaches the disk, then the
process "dies") or *failed* (it dies before writing), and resumed twice.
The result must be bit-identical to the uninterrupted run, and the second
resume must execute nothing.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import harvest_campaign, harvest_digest, load_spec, run_campaign
from repro.engine import run_grid
from repro.incremental.engine import full_recolor, recolor_grid
from repro.resilience import durable
from repro.runtime.config import DurabilityConfig
from repro.service.durability import SessionDurability
from repro.tiling import color_tiled

from tests.campaign.conftest import write_spec
from tests.conftest import random_2d_instances

MODES = ("tear", "fail")


class Crash(BaseException):
    """The process dies here: no ``except Exception`` may absorb it."""


@contextmanager
def crash_at(k: int, mode: str, seen: list):
    """Route durable writes through a counter; write ``k`` crashes.

    ``seen`` collects ``(kind, path)`` of every write attempted, so an
    uninterrupted run (``k = -1``) reports how many writes there are.
    """
    real_append, real_publish = durable.append, durable.publish
    counter = itertools.count()

    def maybe_crash(kind: str, path, data: bytes, tear_to: Path) -> None:
        seen.append((kind, Path(path).name))
        if next(counter) != k:
            return
        if mode == "tear":
            with open(tear_to, "ab") as fh:
                fh.write(data[: max(1, len(data) // 2)])
        raise Crash(f"{mode} at write {k} ({kind} {Path(path).name})")

    def append(path, line, **kwargs):
        maybe_crash("append", path, (line + "\n").encode(), Path(path))
        real_append(path, line, **kwargs)

    def publish(final, data, verify, **kwargs):
        raw = data.encode() if isinstance(data, str) else data
        # A torn publish leaves its temp file behind, as a kill would.
        tmp = Path(final).with_name(f".{Path(final).name}.crashed.tmp")
        maybe_crash("publish", final, raw, tmp)
        return real_publish(final, data, verify, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(durable, "append", append)
        mp.setattr(durable, "publish", publish)
        yield


def run_matrix(tmp_path, scenario, resume, check):
    """Count the writes of an uninterrupted run, then crash at each one."""
    writes: list = []
    with crash_at(-1, "tear", writes):
        clean = scenario(tmp_path / "clean")
    for k, mode in itertools.product(range(len(writes)), MODES):
        where = tmp_path / f"{mode}-{k}"
        with crash_at(k, mode, []):
            with pytest.raises(Crash):
                scenario(where)
        first = resume(where)
        second = resume(where)
        check(clean, first, second, f"{mode} at write {k}: {writes[k]}")
    return writes


def test_run_grid_run_log(tmp_path):
    instances = random_2d_instances(count=2)
    algorithms = ["GLL", "BD"]

    def key(result):
        return [
            (r.instance_index, r.instance, r.algorithm, r.status, r.maxcolor, r.lower_bound)
            for r in result
        ]

    def scenario(where):
        where.mkdir()
        return run_grid(instances, algorithms, jobs=1, log_path=where / "run.jsonl")

    def resume(where):
        log = where / "run.jsonl"
        return run_grid(
            instances, algorithms, jobs=1, log_path=log,
            resume_from=log if log.exists() else None,
        )

    def check(clean, first, second, label):
        assert key(first) == key(clean), label
        assert key(second) == key(clean), label
        assert second.cells_resumed == len(clean), label

    writes = run_matrix(tmp_path, scenario, resume, check)
    assert len(writes) == 4


def test_color_tiled_log_and_carry(tmp_path):
    weights = np.random.default_rng(4).integers(1, 30, size=(12, 10), dtype=np.int64)
    kwargs = {"tile_shape": (4, 5)}

    def scenario(where):
        where.mkdir()
        return color_tiled(
            weights, log_path=where / "tiles.jsonl", out=where / "starts.npy", **kwargs
        )

    def resume(where):
        log = where / "tiles.jsonl"
        return color_tiled(
            weights, log_path=log, resume_from=log, out=where / "starts.npy", **kwargs
        )

    def check(clean, first, second, label):
        for result in (first, second):
            assert result.digest == clean.digest, label
            assert result.maxcolor == clean.maxcolor, label
            np.testing.assert_array_equal(result.starts, clean.starts, err_msg=label)
        assert second.seam_cells == 0, label
        assert second.resumed_tiles == clean.plan.num_tiles, label

    writes = run_matrix(tmp_path, scenario, resume, check)
    # A header publish, then per band (2 of them): 3 tiles, a band record
    # and a carry.
    assert len(writes) == 1 + 2 * 5


def _deltas(shape, count):
    rng = np.random.default_rng(21)
    size = int(np.prod(shape))
    return [
        (rng.choice(size, size=2, replace=False), rng.integers(1, 40, size=2))
        for _ in range(count)
    ]


class _Live:
    """The server's view of one session: state plus the durable store."""

    def __init__(self, root, weights, algorithm):
        self.store = SessionDurability(root, DurabilityConfig(checkpoint_interval=2))
        self.session_id = "s"
        self.algorithm = algorithm
        self.weights = weights.copy()
        self.starts = full_recolor(weights, algorithm)
        self.maxcolor = int((self.starts + self.weights).max())
        self.deltas_applied = 0
        self.journaled = None  # the last seq whose append returned

    def seed(self):
        self.store.record_seed(self)
        self.journaled = 0

    def apply(self, seq, idx, vals):
        """Journal, commit, maybe checkpoint — the recolor verb's order."""
        self.store.record_delta(self.session_id, seq, idx, vals)
        self.journaled = seq
        weights = self.weights.copy()
        weights.ravel()[idx] = vals
        outcome = recolor_grid(weights, self.starts, idx, algorithm=self.algorithm)
        self.weights, self.starts = weights, outcome.starts
        self.maxcolor = int(outcome.maxcolor)
        self.deltas_applied = seq
        self.store.maybe_checkpoint(self)


def test_session_journal_and_checkpoint(tmp_path):
    weights = np.random.default_rng(9).integers(1, 40, size=(6, 6), dtype=np.int64)
    deltas = _deltas(weights.shape, 5)
    crashed: dict[Path, _Live] = {}

    def scenario(where):
        where.mkdir()
        crashed[where] = live = _Live(where, weights, "GLF")
        live.seed()
        for seq, (idx, vals) in enumerate(deltas, 1):
            live.apply(seq, idx, vals)
        return live.store.recover("s"), 0

    def resume(where):
        recovered = SessionDurability(where).recover("s")
        lost = crashed.pop(where, None)
        if lost is not None:  # recovery returns exactly the journaled deltas
            got = None if recovered is None else recovered.deltas_applied
            assert got == lost.journaled, (got, lost.journaled)
        live = _Live(where, weights, "GLF")
        if recovered is None:
            live.seed()  # the seed was never acknowledged: the client re-seeds
        else:
            live.weights, live.starts = recovered.weights, recovered.starts
            live.maxcolor, live.deltas_applied = recovered.maxcolor, recovered.deltas_applied
        start = live.deltas_applied
        for seq, (idx, vals) in enumerate(deltas[start:], start + 1):
            live.apply(seq, idx, vals)
        executed = len(deltas) - start + (recovered is None)
        return live.store.recover("s"), executed

    def check(clean, first, second, label):
        for result, _ in (first, second):
            assert result.deltas_applied == clean[0].deltas_applied, label
            np.testing.assert_array_equal(result.weights, clean[0].weights, err_msg=label)
            np.testing.assert_array_equal(result.starts, clean[0].starts, err_msg=label)
            assert result.maxcolor == clean[0].maxcolor, label
        assert second[1] == 0, label

    writes = run_matrix(tmp_path, scenario, resume, check)
    # A seed, 5 deltas and a checkpoint after deltas 2 and 4.
    assert [kind for kind, _ in writes].count("publish") == 2
    assert len(writes) == 8


def test_campaign_sessions(tmp_path):
    spec = load_spec(write_spec(tmp_path))

    def scenario(where):
        return run_campaign(spec, out_dir=where)

    def resume(where):
        result = run_campaign(spec, out_dir=where, resume=True)
        result.harvest = harvest_campaign(where, write=False)
        return result

    def check(clean, first, second, label):
        digest = harvest_digest(harvest_campaign(clean.out_dir, write=False))
        assert harvest_digest(first.harvest) == digest, label
        assert harvest_digest(second.harvest) == digest, label
        assert second.session["cells_executed"] == 0, label
        # The crashed session never logged; both resumes did.
        assert second.harvest["sessions"] == 2, label

    writes = run_matrix(tmp_path, scenario, resume, check)
    # The manifest, 4 cells and the session line.
    assert [name for _, name in writes] == (
        ["manifest.json"] + ["runs.jsonl"] * 4 + ["sessions.jsonl"]
    )
