"""End-to-end tests of the streaming ``recolor`` verb and its session store.

A server thread holds recolor sessions (one weights grid + one starts grid
each); clients seed a session, stream sparse weight deltas, and must end up
bit-identical to a cold full recolor.  Unknown/expired sessions answer with a *typed* error frame on the
live connection (never a disconnect), are counted in ``/metrics``, and the
client transparently recovers from them by re-seeding from its mirror.
"""

import numpy as np
import pytest

from repro.incremental.engine import full_recolor
from repro.runtime.config import IncrementalConfig, RuntimeConfig
from repro.service.client import ServiceClient
from repro.service.protocol import UNKNOWN_SESSION_CODE
from repro.service.server import ServerConfig, ServerThread
from repro.service.sessions import (
    SessionStore,
    UnknownSessionError,
)


def _grid(shape, seed=0):
    return np.random.default_rng(seed).integers(
        1, 50, size=shape, dtype=np.int64
    )


class TestSessionStore:
    def _clock(self):
        state = {"now": 0.0}

        def clock():
            return state["now"]

        return state, clock

    def test_open_get_roundtrip(self):
        store = SessionStore(limit=4, ttl=100.0)
        weights = _grid((4, 4))
        starts = full_recolor(weights, "GLL")
        store.open("s1", "GLL", weights, starts, 7)
        session = store.get("s1")
        assert session.algorithm == "GLL"
        assert session.maxcolor == 7
        assert np.array_equal(session.weights, weights)

    def test_missing_session_raises_typed_error(self):
        store = SessionStore(limit=4, ttl=100.0)
        with pytest.raises(UnknownSessionError) as exc:
            store.get("nope")
        assert exc.value.code == UNKNOWN_SESSION_CODE
        assert exc.value.reason == "missing"
        assert "nope" in str(exc.value)

    def test_ttl_expiry_is_lazy_and_counted(self):
        state, clock = self._clock()
        store = SessionStore(limit=4, ttl=10.0, clock=clock)
        weights = _grid((3, 3))
        store.open("s1", "GLL", weights, full_recolor(weights, "GLL"), 1)
        state["now"] = 5.0
        store.get("s1")  # touch refreshes the TTL
        state["now"] = 14.0
        store.get("s1")  # still inside the refreshed window
        state["now"] = 30.0
        with pytest.raises(UnknownSessionError) as exc:
            store.get("s1")
        assert exc.value.reason == "expired"
        assert store.stats()["expired"] == 1
        assert store.stats()["live"] == 0

    def test_lru_eviction_past_limit(self):
        store = SessionStore(limit=2, ttl=100.0)
        weights = _grid((3, 3))
        starts = full_recolor(weights, "GLL")
        store.open("a", "GLL", weights, starts, 1)
        store.open("b", "GLL", weights, starts, 1)
        store.get("a")  # freshen "a"; "b" becomes the LRU entry
        store.open("c", "GLL", weights, starts, 1)
        store.get("a")
        store.get("c")
        with pytest.raises(UnknownSessionError):
            store.get("b")
        assert store.stats()["evicted"] == 1

    def test_commit_advances_delta_counter(self):
        store = SessionStore(limit=2, ttl=100.0)
        weights = _grid((3, 3))
        starts = full_recolor(weights, "GLL")
        store.open("s", "GLL", weights, starts, 1)
        session = store.get("s")
        assert session.deltas_applied == 0
        store.commit(session, weights, starts, 1)
        assert store.get("s").deltas_applied == 1

    def test_reopen_is_idempotent_and_drop_forgets(self):
        store = SessionStore(limit=2, ttl=100.0)
        weights = _grid((3, 3))
        starts = full_recolor(weights, "GLL")
        store.open("s", "GLL", weights, starts, 1)
        store.open("s", "GLL", weights, starts, 2)
        assert store.stats()["live"] == 1
        assert store.get("s").maxcolor == 2
        store.drop("s")
        with pytest.raises(UnknownSessionError):
            store.get("s")


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(
        port=0, default_timeout=20.0, cache_size=8,
    )
    with ServerThread(config) as thread:
        yield thread


# Frames are the one wire; the param names it the way callers may.
@pytest.fixture(params=["binary"])
def client(server, request):
    with ServiceClient(
        "127.0.0.1", server.port, timeout=30.0, wire=request.param
    ) as c:
        yield c


class TestRecolorVerb:
    def test_seed_then_deltas_bit_identical(self, client):
        session = "t-stream"
        weights = _grid((16, 16), seed=3)
        seeded = client.recolor_open(session, weights, "GLF")
        assert seeded.ok and seeded.mode == "seed"
        assert np.array_equal(seeded.starts, full_recolor(weights, "GLF"))

        rng = np.random.default_rng(7)
        current = weights.copy()
        for step in range(4):
            idx = rng.choice(current.size, size=3, replace=False)
            new = rng.integers(1, 50, size=3, dtype=np.int64)
            response = client.recolor_delta(session, idx, new)
            assert response.ok, response.error
            assert response.mode in ("incremental", "fallback")
            current.ravel()[idx] = new

        mirror_weights, mirror_starts = client.recolor_state(session)
        assert np.array_equal(mirror_weights, current)
        assert np.array_equal(mirror_starts, full_recolor(current, "GLF"))

    def test_delta_response_carries_provenance(self, client):
        session = "t-prov"
        weights = _grid((12, 12), seed=5)
        assert client.recolor_open(session, weights, "GLF").ok
        response = client.recolor_delta(session, [17], [49])
        assert response.ok
        assert response.recolor["cells_dirty"] == 1
        assert response.recolor["mode"] == response.mode
        assert response.maxcolor is not None

    def test_3d_session(self, client):
        session = "t-3d"
        weights = _grid((6, 6, 6), seed=9)
        seeded = client.recolor_open(session, weights, "GLL")
        assert seeded.ok and seeded.starts.shape == (6, 6, 6)
        response = client.recolor_delta(session, [100], [13])
        assert response.ok
        _, mirror_starts = client.recolor_state(session)
        current = weights.copy()
        current.ravel()[100] = 13
        assert np.array_equal(mirror_starts, full_recolor(current, "GLL"))

    def test_dense_delta_reports_fallback(self, client):
        session = "t-dense"
        weights = _grid((16, 16), seed=11)
        assert client.recolor_open(session, weights, "GLF").ok
        idx = np.arange(weights.size)
        new = np.random.default_rng(2).integers(
            1, 50, size=weights.size, dtype=np.int64
        )
        response = client.recolor_delta(session, idx, new)
        assert response.ok
        assert response.mode == "fallback"
        assert response.recolor["fallback_reason"] == "cone-budget"
        _, mirror_starts = client.recolor_state(session)
        assert np.array_equal(
            mirror_starts, full_recolor(new.reshape(weights.shape), "GLF")
        )

    def test_unknown_session_is_a_typed_error_not_a_disconnect(self, client):
        response = client.recolor_delta(
            "never-seeded", [0], [1], reseed=False
        )
        assert response.status == "invalid"
        assert response.code == UNKNOWN_SESSION_CODE
        assert response.unknown_session
        # The connection survives the error frame: the same socket keeps
        # serving.
        assert client.ping() < 10.0
        weights = _grid((8, 8), seed=1)
        assert client.recolor_open("after-error", weights, "GLL").ok

    def test_unknown_sessions_counted_in_metrics(self, server, client):
        before = (
            client.metrics().get("counters", {})
            .get("recolor_unknown_sessions", 0)
        )
        client.recolor_delta("still-not-there", [0], [1], reseed=False)
        snap = client.metrics()
        assert snap["counters"]["recolor_unknown_sessions"] == before + 1
        assert snap["sessions"]["limit"] >= 1
        assert "live" in snap["sessions"]

    def test_out_of_range_delta_rejected(self, client):
        session = "t-oob"
        weights = _grid((4, 4), seed=13)
        assert client.recolor_open(session, weights, "GLL").ok
        response = client.recolor_delta(
            session, [weights.size + 5], [1], reseed=False
        )
        assert response.status == "invalid"
        assert not response.unknown_session


class TestMirrorRecovery:
    def test_client_reseeds_after_eviction(self):
        runtime = RuntimeConfig(
            incremental=IncrementalConfig(session_limit=1)
        )
        config = ServerConfig(port=0, runtime=runtime, default_timeout=20.0)
        with ServerThread(config) as thread:
            with ServiceClient("127.0.0.1", thread.port, timeout=30.0) as c:
                w1 = _grid((10, 10), seed=1)
                w2 = _grid((10, 10), seed=2)
                assert c.recolor_open("first", w1, "GLF").ok
                # Seeding "second" evicts "first" (limit=1).
                assert c.recolor_open("second", w2, "GLF").ok
                probe = c.recolor_delta("first", [3], [7], reseed=False)
                assert probe.unknown_session
                # With reseed=True the client recovers transparently from
                # its mirror and the delta lands.
                response = c.recolor_delta("first", [3], [7])
                assert response.ok, response.error
                current = w1.copy()
                current.ravel()[3] = 7
                _, mirror_starts = c.recolor_state("first")
                assert np.array_equal(
                    mirror_starts, full_recolor(current, "GLF")
                )
