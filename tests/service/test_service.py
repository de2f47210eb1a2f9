"""End-to-end tests of the coloring service over real sockets.

A :class:`~repro.service.server.ServerThread` is started per test class on
an ephemeral port; clients exercise the full protocol path: admission,
the compute queue, caching, coalescing, deadlines, metrics, and graceful
shutdown — and every served coloring is checked bit-for-bit against a
direct :func:`~repro.core.algorithms.registry.color_with` call.
"""

import asyncio
import socket
import time

import numpy as np
import pytest

from repro.core.algorithms.registry import color_with
from repro.core.problem import IVCInstance
from repro.resilience import clear_plan, install_plan, parse_fault_spec
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.loadgen import build_workload, run_loadgen
from repro.service.server import ServerConfig, ServerThread
from tests.service.conftest import (
    assert_non_frame_peer_refused,
    assert_preamble_death_counted,
)


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(
        port=0, queue_limit=64, cache_size=32, default_timeout=20.0,
    )
    with ServerThread(config) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServiceClient("127.0.0.1", server.port, timeout=30.0) as c:
        yield c


def _grid(shape, seed=0):
    return np.random.default_rng(seed).integers(1, 50, size=shape, dtype=np.int64)


class TestServing:
    def test_ping(self, client):
        assert client.ping() < 5.0

    def test_2d_bit_identical_to_direct(self, client):
        weights = _grid((9, 11), seed=1)
        response = client.color(weights, "BDP")
        assert response.ok and response.status == "ok"
        direct = color_with(IVCInstance.from_grid_2d(weights), "BDP")
        assert np.array_equal(response.starts.ravel(), direct.starts)
        assert response.maxcolor == direct.maxcolor
        assert response.starts.shape == (9, 11)

    def test_3d_bit_identical_to_direct(self, client):
        weights = _grid((4, 5, 6), seed=2)
        response = client.color(weights, "GLL")
        assert response.ok
        direct = color_with(IVCInstance.from_grid_3d(weights), "GLL")
        assert np.array_equal(response.starts.ravel(), direct.starts)

    def test_every_registry_algorithm_served(self, client):
        from repro.core.algorithms.registry import REGISTRY

        weights = _grid((6, 6), seed=3)
        instance = IVCInstance.from_grid_2d(weights)
        for name in REGISTRY.select(instance, include_extensions=True):
            response = client.color(weights, name)
            assert response.ok, (name, response.error)
            direct = color_with(instance, name)
            assert np.array_equal(response.starts.ravel(), direct.starts), name

    def test_repeat_request_hits_cache(self, client):
        weights = _grid((8, 8), seed=4)
        first = client.color(weights, "GLF")
        again = client.color(weights, "GLF")
        assert first.ok and again.ok
        assert again.cached and again.source == "cache"
        assert np.array_equal(first.starts, again.starts)

    def test_unknown_algorithm_is_typed_error(self, client):
        response = client.color(_grid((4, 4)), "BPD")
        assert response.status == "error"
        assert "did you mean" in response.error and "BDP" in response.error

    def test_invalid_request_rejected(self, client):
        # The client does not validate; the server answers a typed invalid.
        response = client.color(np.array([[1, -2], [3, 4]]), "GLL")
        assert response.status == "invalid"
        assert "non-negative" in response.error

    def test_unknown_op_rejected(self, client):
        # A response opcode sent as a request is answered ``invalid`` on
        # the open connection.
        from repro.service.frames import OP_RESPONSE, encode_frame

        response = client._run(client._core._roundtrip(
            encode_frame(OP_RESPONSE, {"id": "y"}), "y"
        ))
        assert response["status"] == "invalid"
        assert "unexpected opcode" in response["error"]
        assert client.ping() < 5.0

    def test_tiled_request_bit_identical_and_shares_cache(self, client):
        weights = _grid((14, 12), seed=11)
        tiled = client.color(weights, "GLL", tiles=(5, 5))
        assert tiled.ok, tiled.error
        direct = color_with(IVCInstance.from_grid_2d(weights), "GLL")
        assert np.array_equal(tiled.starts.ravel(), direct.starts)
        assert tiled.maxcolor == direct.maxcolor
        # Bit-identity means the monolithic phrasing of the same grid is a
        # cache hit — tiled and direct requests share entries by design.
        again = client.color(weights, "GLL")
        assert again.ok and again.source == "cache"

    def test_tiled_non_gll_is_invalid(self, client):
        response = client.color(_grid((6, 6), seed=12), "BDP", tiles=(3, 3))
        assert response.status == "invalid"
        assert "GLL" in response.error

    def test_invalid_frame_answer_does_not_depend_on_cache_state(self, client):
        # Every color frame is validated, so a bad frame sent cold, and the
        # same bytes sent again once a valid request cached their payload,
        # get the same ``invalid`` answer.
        from repro.runtime.fingerprint import content_key
        from repro.service.frames import OP_COLOR, PAYLOAD_DTYPE, encode_frame

        weights = _grid((8, 8), seed=13)
        payload = weights.tobytes()
        key = content_key(weights, "GLF")
        bad_fields = {
            "api-2": {"api": 2},
            "unknown-runtime": {"runtime": "bogus"},
            "tiled-runtime-glf": {"runtime": "tiled"},
            "tiles-glf": {"tiles": [4, 4]},
            "negative-timeout": {"timeout_ms": -1},
        }

        def answers():
            out = {}
            for name, fields in bad_fields.items():
                header = {"api": 1, "op": "color", "id": name, "shape": [8, 8],
                          "algorithm": "GLF", "dtype": PAYLOAD_DTYPE, **fields}
                frame = encode_frame(OP_COLOR, header, payload, key=key)
                reply = client._run(client._core._roundtrip(frame, name))
                out[name] = (reply["status"], reply.get("error"))
            return out

        cold = answers()
        assert all(status == "invalid" for status, _ in cold.values()), cold
        warm_up = client.color(weights, "GLF")
        assert warm_up.ok and warm_up.source == "computed"
        assert client.color(weights, "GLF").source == "cache"
        assert answers() == cold

    def test_queued_deadline_expires(self, client):
        # A microscopic deadline expires before the compute thread answers.
        response = client.color(_grid((5, 5), seed=9), "GLL",
                                timeout=1e-6, request_id="doomed")
        assert response.status == "timeout"

    def test_metrics_snapshot_shape(self, client):
        client.color(_grid((7, 7), seed=5), "GLL")
        snap = client.metrics()
        assert snap["counters"]["requests_total"] >= 1
        assert "request_latency" in snap["histograms"]
        for field in ("p50", "p99", "count"):
            assert field in snap["histograms"]["request_latency"]
        assert "hit_rate" in snap["cache"]
        assert set(snap["substrate"]) == {"geometries", "substrates"}
        assert "hits" in snap["substrate"]["substrates"]
        assert snap["server"]["queue_limit"] == 64

    def test_binary_and_direct_api_bit_identical(self, client):
        # The same grid served over frames and colored in-process via
        # repro.api.color must agree bit for bit.
        from repro.api import color as api_color

        weights = _grid((13, 9), seed=21)
        served = client.color(weights, "GLL")
        direct = api_color(weights, algorithm="GLL")
        assert served.ok
        assert np.array_equal(served.starts, np.asarray(direct.starts))
        assert served.maxcolor == direct.maxcolor

    def test_response_carries_worker_identity(self, client):
        response = client.color(_grid((5, 5), seed=22), "GLL")
        assert response.ok and response.worker == "w0"
        snap = client.metrics()
        assert snap["server"]["worker_id"] == "w0"
        assert snap["server"]["wire_protocols"] == ["frames/v1"]

    def test_torn_binary_frame_counted_not_fatal(self, server):
        from repro.service.frames import OP_COLOR, encode_frame

        raw = encode_frame(OP_COLOR, {"op": "color", "id": "torn"}, b"\x01" * 64)
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(raw[: len(raw) - 10])  # die mid-frame
        time.sleep(0.2)
        with ServiceClient("127.0.0.1", server.port) as c:
            snap = c.metrics()
        assert snap["counters"].get("torn_frames", 0) >= 1

    def test_torn_ndjson_line_counted_not_fatal(self, server):
        # A JSON line, cut before its newline or not, is not a frame: one
        # invalid frame, counted, and the server serves the next client.
        assert_non_frame_peer_refused(
            server.port, b'{"op": "ping", "id": "torn-line"'
        )

    def test_peer_dying_in_the_preamble_is_torn(self, server):
        assert_preamble_death_counted(server.port)

    def test_coalescing_identical_concurrent_requests(self, server):
        # The first request's computation is held, so the other five arrive
        # while it runs and join it: one color_with call answers all six.
        weights = _grid((10, 10), seed=6)

        async def burst():
            clients = [AsyncServiceClient("127.0.0.1", server.port) for _ in range(6)]
            for c in clients:
                await c.connect()
            try:
                return await asyncio.gather(
                    *(c.color(weights, "GZO") for c in clients)
                )
            finally:
                for c in clients:
                    await c.close()

        before = server.service.metrics.snapshot()["counters"]
        install_plan(parse_fault_spec("service.compute:slow=1.0,delay=0.3,max=1"))
        try:
            responses = asyncio.run(burst())
        finally:
            clear_plan()
        after = server.service.metrics.snapshot()["counters"]

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert all(r.ok for r in responses)
        assert sorted(r.source for r in responses) == ["coalesced"] * 5 + ["computed"]
        assert all(r.batch_size == 6 for r in responses)
        assert delta("cache_misses") == 1
        assert delta("requests_coalesced") == 5
        assert delta("registry.dispatch") == 1
        direct = color_with(IVCInstance.from_grid_2d(weights), "GZO")
        for r in responses:
            assert r.starts.ravel().tobytes() == direct.starts.tobytes()
            assert r.maxcolor == direct.maxcolor


class TestBackpressure:
    def test_zero_queue_limit_rejects_immediately(self):
        config = ServerConfig(port=0, queue_limit=0)
        with ServerThread(config) as thread:
            with ServiceClient("127.0.0.1", thread.port) as client:
                response = client.color(_grid((4, 4)), "GLL")
                assert response.status == "overloaded"
                assert "queue full" in response.error
                snap = client.metrics()
                assert snap["counters"]["rejected_overload"] == 1


class TestLoadgen:
    def test_verified_burst(self, server):
        workload = build_workload(
            [(12, 12), (6, 6, 4)], distinct=4, algorithm="GLL", seed=7
        )
        report = run_loadgen(
            "127.0.0.1", server.port, workload,
            requests=40, concurrency=4, verify=True, seed=7,
        )
        assert report.requests == 40
        assert report.ok == 40
        assert report.divergences == 0
        assert report.errors == 0
        assert report.cached > 0  # repeated-shape workload must hit the cache
        assert report.metrics["counters"]["responses_ok"] >= 40
        assert report.throughput_rps > 0
        assert report.workers_seen == {"w0": 40}

    def test_zipf_schedule_is_skewed_and_deterministic(self, server):
        workload = build_workload([(8, 8)], distinct=6, algorithm="GLL", seed=3)
        kwargs = dict(
            requests=60, concurrency=2, seed=3, zipf=1.5, fetch_metrics=False,
        )
        first = run_loadgen("127.0.0.1", server.port, workload, **kwargs)
        second = run_loadgen("127.0.0.1", server.port, workload, **kwargs)
        assert first.zipf == second.zipf == 1.5
        assert first.ok == second.ok == 60
        # Same seed → byte-identical schedule → identical hit profile, and
        # the skew concentrates traffic: far fewer cold computes than the
        # pool has items' worth of uniform traffic would produce.
        assert first.cache_hit_rate > 0.5

    def test_pipelined_bursts_stay_bit_identical(self, server):
        # pipeline=4: each connection writes 4 frames before its first
        # read; ordered responses must still pair with their requests,
        # which verify=True checks against direct colorings.
        workload = build_workload(
            [(9, 9), (5, 5, 3)], distinct=4, algorithm="GLL", seed=9
        )
        report = run_loadgen(
            "127.0.0.1", server.port, workload,
            requests=48, concurrency=3, verify=True, seed=9, pipeline=4,
        )
        assert report.pipeline == 4
        assert report.ok == 48
        assert report.divergences == 0
        assert report.errors == 0
        assert report.to_json()["pipeline"] == 4


class TestGracefulShutdown:
    def test_shutdown_op_drains_and_stops(self):
        config = ServerConfig(port=0, cache_size=8)
        thread = ServerThread(config).start()
        port = thread.port
        with ServiceClient("127.0.0.1", port) as client:
            assert client.color(_grid((5, 5), seed=8), "GLL").ok
            client.shutdown()
        # The listener must go away shortly after the drain completes.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                probe = socket.create_connection(("127.0.0.1", port), timeout=0.5)
                probe.close()
                time.sleep(0.05)
            except OSError:
                break
        else:
            pytest.fail("server still accepting connections after shutdown")
        thread.stop()

    def test_spill_survives_restart(self, tmp_path):
        spill = tmp_path / "l2"
        weights = _grid((6, 7), seed=10)
        config = ServerConfig(port=0, cache_size=1, spill_dir=str(spill))
        with ServerThread(config) as thread:
            with ServiceClient("127.0.0.1", thread.port) as client:
                first = client.color(weights, "GLL")
                client.color(_grid((6, 7), seed=11), "GLL")  # evict from memory
        assert len(list(spill.glob("*.json"))) == 2

        warm = ServerConfig(port=0, cache_size=4, spill_dir=str(spill))
        with ServerThread(warm) as thread:
            with ServiceClient("127.0.0.1", thread.port) as client:
                served = client.color(weights, "GLL")
                assert served.ok
                assert served.cached  # served from the spill directory
                assert np.array_equal(served.starts, first.starts)
            assert thread.service.cache.stats()["spill_hits"] == 1


@pytest.mark.parametrize("client_class", [ServiceClient, AsyncServiceClient])
def test_wire_keyword_accepts_only_binary(client_class):
    client_class(wire="binary")
    for wire in ("auto", "ndjson"):
        with pytest.raises(ValueError, match="binary"):
            client_class(wire=wire)
