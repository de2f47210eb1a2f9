"""End-to-end tests of the multi-process router tier.

A :class:`~repro.service.router.RouterThread` with two spawned worker
processes runs per test class.  These tests pin down the scaling
contracts: content-key routing is stable (same request → same worker),
the shared L2 directory serves a dead worker's results from its sibling,
a killed worker degrades service rather than failing it, and the merged
``/metrics`` view names every worker.

Spawned processes make this the slowest service test module; it stays
well under the tier-1 budget because the grids are tiny.
"""

import time

import numpy as np
import pytest

from repro.core.algorithms.registry import color_with
from repro.core.problem import IVCInstance
from repro.incremental.engine import full_recolor
from repro.service.client import ServiceClient
from repro.service.frames import WIRE_PROTOCOLS, session_routing_key
from repro.service.router import RouterConfig, RouterThread, rank_workers
from repro.service.server import ServerConfig
from tests.service.conftest import (
    assert_non_frame_peer_refused,
    assert_preamble_death_counted,
)


@pytest.fixture(scope="module")
def router():
    config = RouterConfig(
        port=0,
        workers=2,
        worker_config=ServerConfig(
            queue_limit=64, cache_size=32, default_timeout=20.0,
        ),
    )
    with RouterThread(config) as thread:
        yield thread


@pytest.fixture()
def client(router):
    with ServiceClient("127.0.0.1", router.port, timeout=30.0) as c:
        yield c


def _grid(shape, seed=0):
    return np.random.default_rng(seed).integers(1, 50, size=shape, dtype=np.int64)


class TestRankWorkers:
    def test_deterministic_and_complete(self):
        ranking = rank_workers("ab" * 20, 4)
        assert sorted(ranking) == [0, 1, 2, 3]
        assert ranking == rank_workers("ab" * 20, 4)

    def test_membership_change_is_minimal(self):
        # Rendezvous hashing: dropping the last slot only moves keys that
        # lived on it — every other key keeps its owner.
        keys = [f"{i:040x}" for i in range(64)]
        before = {k: rank_workers(k, 4)[0] for k in keys}
        after = {k: rank_workers(k, 3)[0] for k in keys}
        for k in keys:
            if before[k] != 3:
                assert after[k] == before[k]


class TestRouting:
    def test_served_and_bit_identical(self, client):
        weights = _grid((9, 7), seed=1)
        response = client.color(weights, "GLL")
        assert response.ok, response.error
        direct = color_with(IVCInstance.from_grid_2d(weights), "GLL")
        assert np.array_equal(response.starts.ravel(), direct.starts)
        assert response.worker in ("w0", "w1")

    def test_same_key_same_worker(self, client):
        weights = _grid((8, 8), seed=2)
        owners = {client.color(weights, "GLL").worker for _ in range(6)}
        assert len(owners) == 1  # content-key routing is stable

    def test_repeat_request_hits_worker_cache(self, client):
        weights = _grid((10, 6), seed=3)
        first = client.color(weights, "BDP")
        again = client.color(weights, "BDP")
        assert first.ok and again.ok
        assert again.cached
        assert again.worker == first.worker

    def test_distinct_keys_spread_across_workers(self, client):
        owners = {
            client.color(_grid((6, 6), seed=s), "GLL").worker
            for s in range(20, 36)
        }
        assert owners == {"w0", "w1"}

    def test_ndjson_through_router(self, router):
        # An NDJSON client is not forwarded: the router answers its first
        # line with one invalid frame and hangs up.
        assert_non_frame_peer_refused(router.port)

    def test_peer_dying_in_the_preamble_is_torn(self, router):
        assert_preamble_death_counted(router.port)

    def test_one_advertised_protocol_list(self, client, capsys):
        # Router, workers (servers) and `serve --version` read one constant.
        from repro.cli import main

        snap = client.metrics()
        assert main(["serve", "--version"]) == 0
        printed = capsys.readouterr().out.strip().split(": ", 1)[1]
        assert printed.split(", ") == list(WIRE_PROTOCOLS)
        assert snap["server"]["wire_protocols"] == list(WIRE_PROTOCOLS)
        for worker_snap in snap["workers"].values():
            assert worker_snap["server"]["wire_protocols"] == list(
                WIRE_PROTOCOLS
            )

    def test_pipelined_bursts_through_router_verify(self, router):
        # The router's pipelined forward path: many frames in flight per
        # connection, fanned across both workers, responses re-paired in
        # order — verify=True proves no response ever pairs with the
        # wrong request.
        from repro.service.loadgen import build_workload, run_loadgen

        workload = build_workload(
            [(8, 6), (4, 4, 3)], distinct=6, algorithm="GLL", seed=11
        )
        report = run_loadgen(
            "127.0.0.1", router.port, workload,
            requests=60, concurrency=3, verify=True, seed=11,
            pipeline=5, zipf=1.0,
        )
        assert report.ok == 60
        assert report.divergences == 0
        assert report.errors == 0
        assert len(report.workers_seen) == 2  # both workers served traffic

    def test_merged_metrics_name_every_worker(self, client):
        client.color(_grid((5, 5), seed=5), "GLL")
        snap = client.metrics()
        assert set(snap["workers"]) == {"w0", "w1"}
        for worker_snap in snap["workers"].values():
            assert worker_snap["worker"]["alive"]
        assert snap["router"]["workers"] == 2
        assert snap["fleet"]["counters"]["responses_ok"] >= 1
        assert snap["counters"]["routed_total"] >= 1
        assert snap["server"]["worker_id"] == "router"


class TestFailover:
    def test_kill_worker_degrades_not_fails(self, router):
        with ServiceClient("127.0.0.1", router.port, timeout=30.0) as client:
            weights = _grid((11, 5), seed=6)
            first = client.color(weights, "GLL")
            assert first.ok
            owner = first.worker
            handle = next(
                h for h in router.router.pool.handles if h.worker_id == owner
            )
            handle.process.kill()
            handle.process.join(5.0)

            # The very next request for the dead worker's key must still be
            # served — by the sibling, warm from the shared L2 directory.
            survived = client.color(weights, "GLL")
            assert survived.ok, survived.error
            assert survived.worker != owner
            assert np.array_equal(survived.starts, first.starts)

            # The supervisor restarts the slot (same worker_id, new pid).
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                snap = client.metrics()
                worker = snap["workers"].get(owner, {}).get("worker", {})
                if worker.get("alive") and worker.get("restarts", 0) >= 1:
                    break
                time.sleep(0.2)
            else:
                pytest.fail(f"worker {owner} was not restarted")
            assert snap["counters"]["worker_restarts"] >= 1

            # And the restarted owner serves its old key from the L2 tier.
            recovered = client.color(weights, "GLL")
            assert recovered.ok
            assert np.array_equal(recovered.starts, first.starts)


class TestRecolorRouting:
    def _stream(self, client, session, shape, deltas, seed):
        weights = _grid(shape, seed=seed)
        assert client.recolor_open(session, weights, "GLF").ok
        rng = np.random.default_rng(seed + 100)
        current = weights.copy()
        for _ in range(deltas):
            idx = rng.choice(current.size, size=3, replace=False)
            vals = rng.integers(1, 50, size=3, dtype=np.int64)
            response = client.recolor_delta(session, idx, vals)
            assert response.ok, response.error
            current.ravel()[idx] = vals
        return current

    @pytest.mark.parametrize("wire", ["binary"])  # the one wire, named
    def test_session_streams_through_router_bit_identical(self, router, wire):
        # The recolor verb pipelines through the router exactly like color,
        # but routed by the session key so every delta of a session lands
        # on the same worker's in-memory state.
        with ServiceClient("127.0.0.1", router.port, timeout=30.0,
                           wire=wire) as client:
            session = f"route-{wire}"
            current = self._stream(client, session, (12, 12), 5, seed=31)
            mirror_w, mirror_s = client.recolor_state(session)
            assert np.array_equal(mirror_w, current)
            assert np.array_equal(mirror_s, full_recolor(current, "GLF"))
            assert client.reseeds_used == 0

    def test_owner_kill_mid_stream_recovers_without_reseed(self, router):
        # The chaos contract: SIGKILL the worker owning an active session
        # mid delta-stream.  The journal under the shared spill dir lets
        # whichever worker next sees the session (failover sibling or the
        # restarted slot) replay it — the stream completes bit-identically
        # with ZERO client mirror re-seeds.
        with ServiceClient("127.0.0.1", router.port, timeout=30.0) as client:
            session = "durable-kill"
            current = self._stream(client, session, (14, 14), 3, seed=37)
            owner = f"w{rank_workers(session_routing_key(session), 2)[0]}"
            handle = next(
                h for h in router.router.pool.handles if h.worker_id == owner
            )
            handle.process.kill()
            handle.process.join(5.0)

            rng = np.random.default_rng(41)
            saw_recovery = False
            for _ in range(4):
                idx = rng.choice(current.size, size=3, replace=False)
                vals = rng.integers(1, 50, size=3, dtype=np.int64)
                response = client.recolor_delta(session, idx, vals)
                assert response.ok, response.error
                saw_recovery = saw_recovery or response.recovered
                current.ravel()[idx] = vals
            assert saw_recovery
            assert client.reseeds_used == 0

            mirror_w, mirror_s = client.recolor_state(session)
            assert np.array_equal(mirror_w, current)
            assert np.array_equal(mirror_s, full_recolor(current, "GLF"))
            assert client.metrics()["fleet"]["counters"].get(
                "session_recoveries", 0
            ) >= 1
