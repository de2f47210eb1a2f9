"""Unit + e2e tests of recolor-session durability (WAL, checkpoints, replay).

The contract under test: any session state the server has *acknowledged*
can be rebuilt bit-identically from the spill directory alone — through a
torn trailing append, an injected torn/corrupt write, a checkpoint that
failed verification, or a process that simply vanished.  Recovery replays
the same incremental-engine calls the live server made, so bit-identity
follows from the engine's proven determinism.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incremental.engine import full_recolor
from repro.obs.metrics import MetricsRegistry
from repro.resilience import durable
from repro.resilience.faults import (
    InjectedFault,
    clear_plan,
    install_plan,
    parse_fault_spec,
)
from repro.runtime.config import DurabilityConfig, RuntimeConfig
from repro.service.durability import SessionDurability, session_stem
from repro.service.sessions import RecolorSession, SessionStore


def _grid(shape, seed=0):
    return np.random.default_rng(seed).integers(
        1, 50, size=shape, dtype=np.int64
    )


def _session(session_id, weights, algorithm="GLF", deltas_applied=0):
    starts = full_recolor(weights, algorithm)
    return RecolorSession(
        session_id=session_id,
        algorithm=algorithm,
        weights=weights,
        starts=starts,
        maxcolor=int((starts + weights).max()),
        created=0.0,
        touched=0.0,
        deltas_applied=deltas_applied,
    )


def _stream(store, session_id, weights, deltas, algorithm="GLF", seed=7):
    """Seed + ``deltas`` sparse updates through the WAL; final weights."""
    session = _session(session_id, weights, algorithm)
    store.record_seed(session)
    rng = np.random.default_rng(seed)
    current = weights.copy()
    for seq in range(1, deltas + 1):
        idx = rng.choice(current.size, size=3, replace=False)
        vals = rng.integers(1, 50, size=3, dtype=np.int64)
        store.record_delta(session_id, seq, idx, vals)
        current.ravel()[idx] = vals
        session.deltas_applied = seq
        session.weights = current.copy()
        session.starts = full_recolor(current, algorithm)
        session.maxcolor = int((session.starts + current).max())
    return session, current


@pytest.fixture()
def store(tmp_path):
    return SessionDurability(
        tmp_path, DurabilityConfig(checkpoint_interval=0)
    )


class TestJournalReplay:
    def test_seed_and_deltas_recover_bit_identically(self, store):
        weights = _grid((10, 10), seed=1)
        _, final = _stream(store, "s", weights, deltas=5)
        recovered = store.recover("s")
        assert recovered is not None
        assert recovered.deltas_applied == 5
        assert np.array_equal(recovered.weights, final)
        assert np.array_equal(
            recovered.starts, full_recolor(final, "GLF")
        )
        assert recovered.maxcolor == int(
            (recovered.starts + final).max()
        )

    def test_unknown_session_recovers_to_none(self, store):
        assert store.recover("never-seen") is None

    def test_duplicate_records_are_idempotent(self, store):
        # A client re-send after a failed ack journals the same seq twice;
        # replay must apply it once.
        weights = _grid((8, 8), seed=2)
        session, final = _stream(store, "s", weights, deltas=3)
        with store.journal_path("s").open("rb") as fh:
            lines = fh.read().splitlines()
        last = json.loads(lines[-1])
        store.record_delta("s", last["seq"], last["idx"], last["weights"])
        recovered = store.recover("s")
        assert recovered.deltas_applied == 3
        assert np.array_equal(recovered.weights, final)

    def test_reseed_resets_the_epoch(self, store):
        w1 = _grid((8, 8), seed=3)
        _stream(store, "s", w1, deltas=4)
        w2 = _grid((6, 6), seed=4)
        session2, final2 = _stream(store, "s", w2, deltas=2)
        recovered = store.recover("s")
        assert recovered.weights.shape == (6, 6)
        assert np.array_equal(recovered.weights, final2)
        assert recovered.deltas_applied == 2

    def test_3d_session_recovers(self, store):
        weights = _grid((4, 5, 6), seed=5)
        _, final = _stream(store, "s3d", weights, deltas=3, algorithm="GLL")
        recovered = store.recover("s3d")
        assert np.array_equal(
            recovered.starts, full_recolor(final, "GLL")
        )


class TestCheckpoints:
    def test_checkpoint_truncates_journal_and_recovers(self, tmp_path):
        store = SessionDurability(
            tmp_path, DurabilityConfig(checkpoint_interval=2)
        )
        weights = _grid((9, 9), seed=6)
        session, final = _stream(store, "s", weights, deltas=2)
        assert store.maybe_checkpoint(session)
        assert store.journal_path("s").stat().st_size == 0
        assert store.checkpoint_path("s").exists()
        recovered = store.recover("s")
        assert recovered.source == "checkpoint"
        assert recovered.deltas_applied == 2
        assert np.array_equal(recovered.weights, final)
        assert np.array_equal(
            recovered.starts, full_recolor(final, "GLF")
        )

    @pytest.mark.parametrize("shape", [(9, 7), (4, 5, 3)])
    def test_checkpoint_bytes_match_the_per_element_encoding(self, tmp_path, shape):
        # The weight and start lists are encoded with ``tolist``; the file
        # must be byte for byte what ``int()`` per element wrote.
        import hashlib

        store = SessionDurability(tmp_path, DurabilityConfig(checkpoint_interval=0))
        weights = _grid(shape, seed=3)
        weights.ravel()[::5] = 0
        session = _session("pin", weights, "GLL", deltas_applied=4)
        assert store.write_checkpoint(session)
        h = hashlib.blake2b(digest_size=20)
        h.update(repr(tuple(weights.shape)).encode())
        h.update(weights.tobytes())
        h.update(session.starts.tobytes())
        old = json.dumps(
            {
                "session": "pin",
                "algorithm": "GLL",
                "shape": [int(s) for s in weights.shape],
                "seq": 4,
                "maxcolor": int(session.maxcolor),
                "weights": [int(w) for w in weights.ravel()],
                "starts": [int(s) for s in session.starts.ravel()],
                "fingerprint": h.hexdigest(),
            },
            separators=(",", ":"),
        )
        assert store.checkpoint_path("pin").read_bytes() == old.encode()

    def test_deltas_after_checkpoint_replay_on_top(self, tmp_path):
        store = SessionDurability(
            tmp_path, DurabilityConfig(checkpoint_interval=2)
        )
        weights = _grid((9, 9), seed=7)
        session, current = _stream(store, "s", weights, deltas=2)
        assert store.maybe_checkpoint(session)
        rng = np.random.default_rng(11)
        for seq in (3, 4, 5):
            idx = rng.choice(current.size, size=2, replace=False)
            vals = rng.integers(1, 50, size=2, dtype=np.int64)
            store.record_delta("s", seq, idx, vals)
            current.ravel()[idx] = vals
        recovered = store.recover("s")
        assert recovered.source == "journal"
        assert recovered.deltas_applied == 5
        assert np.array_equal(recovered.weights, current)
        assert np.array_equal(
            recovered.starts, full_recolor(current, "GLF")
        )

    def test_damaged_checkpoint_is_ignored_journal_wins(self, store):
        weights = _grid((8, 8), seed=8)
        _, final = _stream(store, "s", weights, deltas=3)
        # Fabricate on-disk checkpoint damage (bit rot, torn write at the
        # OS level): the journal still holds the whole epoch, so recovery
        # must ignore the checkpoint and replay from the seed record.
        store.checkpoint_path("s").write_text('{"seq": 99, "garbage')
        recovered = store.recover("s")
        assert recovered is not None
        assert recovered.deltas_applied == 3
        assert np.array_equal(recovered.weights, final)

    def test_corrupt_fault_keeps_journal_and_old_checkpoint(self, tmp_path):
        metrics = MetricsRegistry()
        store = SessionDurability(
            tmp_path,
            DurabilityConfig(checkpoint_interval=1),
            metrics=metrics,
        )
        weights = _grid((8, 8), seed=9)
        session, final = _stream(store, "s", weights, deltas=1)
        assert store.write_checkpoint(session)  # good checkpoint at seq 1
        good = store.checkpoint_path("s").read_bytes()
        rng = np.random.default_rng(12)
        idx = rng.choice(final.size, size=2, replace=False)
        vals = rng.integers(1, 50, size=2, dtype=np.int64)
        store.record_delta("s", 2, idx, vals)
        final.ravel()[idx] = vals
        session.deltas_applied = 2
        session.weights = final
        session.starts = full_recolor(final, "GLF")
        install_plan(
            parse_fault_spec(
                "seed=3;durability.checkpoint.write:corrupt=1.0,max=1"
            )
        )
        try:
            assert not store.write_checkpoint(session)
        finally:
            clear_plan()
        # Verification rejected the damaged snapshot BEFORE publishing:
        # the seq-1 checkpoint and the seq-2 journal record both survive.
        assert store.checkpoint_path("s").read_bytes() == good
        assert store.journal_path("s").stat().st_size > 0
        assert metrics.counter("checkpoint_verify_failures").value == 1
        recovered = store.recover("s")
        assert recovered.deltas_applied == 2
        assert np.array_equal(recovered.weights, final)

    def test_stale_fault_skips_compaction(self, tmp_path):
        store = SessionDurability(
            tmp_path, DurabilityConfig(checkpoint_interval=1)
        )
        weights = _grid((6, 6), seed=10)
        session, final = _stream(store, "s", weights, deltas=1)
        size_before = store.journal_path("s").stat().st_size
        install_plan(
            parse_fault_spec(
                "seed=3;durability.checkpoint.write:stale=1.0,max=1"
            )
        )
        try:
            assert not store.maybe_checkpoint(session)
        finally:
            clear_plan()
        assert not store.checkpoint_path("s").exists()
        assert store.journal_path("s").stat().st_size == size_before
        recovered = store.recover("s")
        assert np.array_equal(recovered.weights, final)


class TestTornRecords:
    def _journal_with_breakpoints(self, store, deltas=6):
        """A journaled stream plus the byte offset after each append."""
        weights = _grid((7, 7), seed=13)
        session = _session("torn", weights, "GLF")
        store.record_seed(session)
        path = store.journal_path("torn")
        offsets = [path.stat().st_size]
        states = [weights.copy()]
        rng = np.random.default_rng(14)
        current = weights.copy()
        for seq in range(1, deltas + 1):
            idx = rng.choice(current.size, size=2, replace=False)
            vals = rng.integers(1, 50, size=2, dtype=np.int64)
            store.record_delta("torn", seq, idx, vals)
            current.ravel()[idx] = vals
            offsets.append(path.stat().st_size)
            states.append(current.copy())
        return path, offsets, states

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_truncated_tail_recovers_last_complete_record(
        self, tmp_path_factory, data
    ):
        # Crash-during-append leaves an arbitrary prefix of the file.
        # Recovery must land exactly on the state after the last record
        # whose newline made it to disk.
        tmp_path = tmp_path_factory.mktemp("torn")
        store = SessionDurability(
            tmp_path, DurabilityConfig(checkpoint_interval=0)
        )
        path, offsets, states = self._journal_with_breakpoints(store)
        cut = data.draw(
            st.integers(min_value=offsets[0], max_value=offsets[-1]),
            label="truncation offset",
        )
        raw = path.read_bytes()[:cut]
        path.write_bytes(raw)
        # A record is complete once its JSON content is on disk — losing
        # only the trailing newline (cut == offset - 1) still parses.
        complete = max(i for i, off in enumerate(offsets) if off <= cut + 1)
        recovered = store.recover("torn")
        assert recovered is not None
        assert recovered.deltas_applied == complete
        assert np.array_equal(recovered.weights, states[complete])
        assert np.array_equal(
            recovered.starts, full_recolor(states[complete], "GLF")
        )

    def test_torn_append_fault_then_resend_recovers(self, tmp_path):
        metrics = MetricsRegistry()
        store = SessionDurability(
            tmp_path,
            DurabilityConfig(checkpoint_interval=0),
            metrics=metrics,
        )
        weights = _grid((7, 7), seed=15)
        session = _session("s", weights, "GLF")
        store.record_seed(session)
        idx = np.asarray([3, 9])
        vals = np.asarray([41, 17])
        install_plan(
            parse_fault_spec(
                "seed=5;durability.journal.append:torn=1.0,max=1"
            )
        )
        try:
            with pytest.raises(InjectedFault):
                store.record_delta("s", 1, idx, vals)
        finally:
            clear_plan()
        assert metrics.counter("journal_torn_appends").value == 1
        # The un-acked client re-sends; the append cuts the torn fragment
        # so the retry lands as the journal's one clean delta.
        store.record_delta("s", 1, idx, vals)
        recovered = store.recover("s")
        assert recovered.deltas_applied == 1
        expected = weights.copy()
        expected.ravel()[idx] = vals
        assert np.array_equal(recovered.weights, expected)
        journal = durable.read(store.journal_path("s"))
        assert [r["t"] for r in journal.records] == ["seed", "delta"]
        assert journal.damaged == [] and journal.torn is None
        assert metrics.counter("journal_skipped_records").value == 0

    def test_truncated_checkpoint_falls_back(self, tmp_path):
        store = SessionDurability(
            tmp_path, DurabilityConfig(checkpoint_interval=1)
        )
        weights = _grid((6, 6), seed=16)
        session, final = _stream(store, "s", weights, deltas=1)
        # Keep a journal copy, checkpoint (truncates it), then restore the
        # journal and tear the checkpoint: recovery must fall back to the
        # journal epoch.
        journal = store.journal_path("s").read_bytes()
        assert store.write_checkpoint(session)
        raw = store.checkpoint_path("s").read_bytes()
        store.checkpoint_path("s").write_bytes(raw[: len(raw) // 2])
        store.journal_path("s").write_bytes(journal)
        recovered = store.recover("s")
        assert recovered is not None
        assert np.array_equal(recovered.weights, final)


class TestOfflineTools:
    def test_list_inspect_compact(self, tmp_path):
        store = SessionDurability(
            tmp_path, DurabilityConfig(checkpoint_interval=0)
        )
        weights = _grid((6, 6), seed=17)
        _, final = _stream(store, "offline", weights, deltas=4)
        listed = store.list_sessions()
        assert len(listed) == 1
        assert listed[0]["session"] == "offline"
        assert listed[0]["journal_deltas"] == 4
        assert listed[0]["stem"] == session_stem("offline")

        detail = store.inspect("offline")
        assert detail["recoverable"]
        assert detail["deltas_applied"] == 4
        assert detail["journal_seqs"] == [0, 1, 2, 3, 4]

        summary = store.compact("offline")
        assert summary["compacted"]
        assert store.journal_path("offline").stat().st_size == 0
        recovered = store.recover("offline")
        assert np.array_equal(recovered.weights, final)
        after = store.list_sessions()
        assert after[0]["checkpoint_verified"]
        assert after[0]["checkpoint_seq"] == 4

    def test_forget_removes_both_files(self, store):
        weights = _grid((5, 5), seed=18)
        session, _ = _stream(store, "gone", weights, deltas=1)
        store.write_checkpoint(session)
        store.forget("gone")
        assert not store.journal_path("gone").exists()
        assert not store.checkpoint_path("gone").exists()
        assert store.recover("gone") is None


class TestSessionStoreRecovery:
    def test_eviction_metrics_split_lru_vs_ttl(self):
        metrics = MetricsRegistry()
        state = {"now": 0.0}
        store = SessionStore(
            limit=1, ttl=10.0, clock=lambda: state["now"], metrics=metrics
        )
        weights = _grid((4, 4))
        starts = full_recolor(weights, "GLL")
        store.open("a", "GLL", weights, starts, 1)
        store.open("b", "GLL", weights, starts, 1)  # evicts "a" (LRU)
        assert metrics.counter("session_evictions_lru").value == 1
        assert metrics.counter("session_evictions_ttl").value == 0
        state["now"] = 99.0
        with pytest.raises(Exception):
            store.get("b")  # expired (TTL)
        assert metrics.counter("session_evictions_ttl").value == 1
        assert store.stats()["evicted"] == 1
        assert store.stats()["expired"] == 1

    def test_get_or_recover_replays_then_counts(self, tmp_path):
        metrics = MetricsRegistry()
        durability = SessionDurability(
            tmp_path, DurabilityConfig(checkpoint_interval=0)
        )
        weights = _grid((6, 6), seed=19)
        _, final = _stream(durability, "lost", weights, deltas=2)
        store = SessionStore(
            limit=4, ttl=100.0, metrics=metrics,
            recovery=durability.recover,
        )
        session, recovered = store.get_or_recover("lost")
        assert recovered
        assert session.deltas_applied == 2
        assert np.array_equal(session.weights, final)
        assert metrics.counter("session_recoveries").value == 1
        assert store.stats()["recovered"] == 1
        # Now held in memory: the second lookup is a plain hit.
        again, recovered_again = store.get_or_recover("lost")
        assert not recovered_again and again is session

    def test_get_or_recover_without_recovery_raises(self):
        from repro.service.sessions import UnknownSessionError

        store = SessionStore(limit=4, ttl=100.0)
        with pytest.raises(UnknownSessionError):
            store.get_or_recover("nope")


class TestServerEndToEnd:
    # Frames are the one wire; the param names it the way callers may.
    @pytest.fixture(params=["binary"])
    def wire(self, request):
        return request.param

    def test_recovered_flag_after_state_loss(self, tmp_path, wire):
        from repro.service.client import ServiceClient
        from repro.service.server import ServerConfig, ServerThread

        config = ServerConfig(
            port=0, spill_dir=str(tmp_path), default_timeout=20.0,
            runtime=RuntimeConfig(
                durability=DurabilityConfig(checkpoint_interval=3)
            ),
        )
        with ServerThread(config) as thread:
            with ServiceClient(
                "127.0.0.1", thread.port, timeout=30.0, wire=wire
            ) as c:
                weights = _grid((10, 10), seed=20)
                assert c.recolor_open("e2e", weights, "GLF").ok
                current = weights.copy()
                rng = np.random.default_rng(21)
                for _ in range(4):
                    idx = rng.choice(current.size, size=3, replace=False)
                    vals = rng.integers(1, 50, size=3, dtype=np.int64)
                    response = c.recolor_delta("e2e", idx, vals)
                    assert response.ok and not response.recovered
                    current.ravel()[idx] = vals
                # Simulate the crash: drop all in-memory session state.
                thread.service.sessions.drop("e2e")
                idx = rng.choice(current.size, size=3, replace=False)
                vals = rng.integers(1, 50, size=3, dtype=np.int64)
                response = c.recolor_delta("e2e", idx, vals, reseed=False)
                assert response.ok, response.error
                assert response.recovered
                assert c.reseeds_used == 0
                current.ravel()[idx] = vals
                mirror_w, mirror_s = c.recolor_state("e2e")
                assert np.array_equal(mirror_w, current)
                assert np.array_equal(
                    mirror_s, full_recolor(current, "GLF")
                )
                snap = c.metrics()
                assert snap["counters"]["session_recoveries"] == 1
                assert snap["sessions"]["recovered"] == 1
                assert snap["sessions"]["durability"]["journals"] >= 1
                assert (
                    snap["histograms"]["journal_replay_seconds"]["count"]
                    == 1
                )

    def test_durability_off_preserves_typed_unknown_session(self):
        from repro.service.client import ServiceClient
        from repro.service.server import ServerConfig, ServerThread

        config = ServerConfig(port=0, default_timeout=20.0)  # no spill_dir
        with ServerThread(config) as thread:
            assert thread.service.durability is None
            with ServiceClient("127.0.0.1", thread.port, timeout=30.0) as c:
                weights = _grid((6, 6), seed=22)
                assert c.recolor_open("off", weights, "GLF").ok
                thread.service.sessions.drop("off")
                response = c.recolor_delta("off", [0], [1], reseed=False)
                assert response.unknown_session
