"""Chaos tests for the service layer: dropped connections, compute faults,
spill corruption, drain under pressure, and reconnect-after-restart.

Server and clients share this process, so one installed :class:`FaultPlan`
drives both sides' hook sites at once — the same topology the CI
``chaos-smoke`` job runs through the CLI.
"""

import asyncio
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.resilience import (
    FaultPlan,
    FaultPoint,
    RetryPolicy,
    install_plan,
    parse_fault_spec,
)
from repro.service import (
    AsyncServiceClient,
    ResultCache,
    ServiceClient,
    ServiceConnectionError,
)
from repro.service.cache import CacheEntry
from repro.service.frames import encode_hello, encode_hello_ok
from repro.service.loadgen import build_workload, run_loadgen
from repro.service.server import ServerConfig, ServerThread

RETRY = RetryPolicy(retries=5, base_delay=0.005, max_delay=0.05)


@pytest.fixture(params=["blocking", "asyncio"])
def facade(request):
    """``(make, run)`` for one client facade.

    ``make`` builds a client; ``run`` resolves the value one client call
    returns — identity for the blocking :class:`ServiceClient`, one
    ``run_until_complete`` on a test-owned loop for the
    :class:`AsyncServiceClient` core — so one scenario drives both.
    """
    if request.param == "blocking":
        yield ServiceClient, lambda value: value
        return
    loop = asyncio.new_event_loop()
    try:
        yield AsyncServiceClient, loop.run_until_complete
    finally:
        loop.close()


def _listener(answer_hello: bool):
    """Port of a TCP listener that accepts connections and stops reading,
    right away or after answering the client's hello."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(0.05)
    held: list[socket.socket] = []
    stop = threading.Event()

    def accept() -> None:
        while not stop.is_set():
            try:
                conn = server.accept()[0]
            except OSError:
                continue
            held.append(conn)
            if answer_hello:
                conn.settimeout(5.0)
                try:
                    conn.recv(len(encode_hello()), socket.MSG_WAITALL)
                    conn.sendall(encode_hello_ok())
                except OSError:
                    pass

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    try:
        yield server.getsockname()[1]
    finally:
        stop.set()
        thread.join()
        for conn in held:
            conn.close()
        server.close()


@pytest.fixture
def deaf_listener():
    """Port of a TCP listener that accepts connections and never reads."""
    yield from _listener(answer_hello=False)


@pytest.fixture
def deaf_after_hello():
    """Port of a listener that answers the hello, then never reads."""
    yield from _listener(answer_hello=True)


class TestLoadgenUnderChaos:
    def test_chaos_run_is_lossless_and_exact(self, tmp_path):
        """The acceptance chaos run: drops + compute faults + spill
        corruption, yet zero lost requests, bit-identical colorings, and
        compute faults answered ``error`` exactly where they fired."""
        install_plan(parse_fault_spec(
            "seed=11;"
            "client.send:drop=0.1,max=6;"
            "client.recv:drop=0.05,max=4;"
            "service.compute:error=0.3,max=4;"
            "cache.spill.write:corrupt=1.0,max=3"
        ))
        spill = tmp_path / "l2"
        config = ServerConfig(
            cache_size=2,  # tiny: forces evictions, so reads hit the spill
            spill_dir=str(spill),
        )
        with ServerThread(config) as thread:
            workload = build_workload(
                [(8, 8), (6, 6), (5, 7)], distinct=6, seed=3
            )
            report = run_loadgen(
                "127.0.0.1", thread.port, workload,
                requests=80, concurrency=4, verify=True, seed=3,
                retry=RETRY,
            )
            cache_stats = thread.service.cache.stats()
            metrics = thread.service.metrics.snapshot()

        assert report.requests == 80  # nothing lost
        assert report.connection_failures == 0
        assert report.divergences == 0  # every ok answer is bit-identical
        # Every fault family must actually have fired, and the client's
        # transport retries must have engaged.
        assert report.faults_fired.get("client.send:drop", 0) > 0
        assert report.connection_retries > 0
        # One compute attempt per request: an injected compute fault is the
        # answer (`error`, to every request coalesced onto it), never
        # retried, and it is the only source of errors.
        compute_faults = report.faults_fired.get("service.compute:error", 0)
        assert compute_faults > 0
        assert metrics["counters"]["compute_errors"] == compute_faults
        assert compute_faults <= report.errors == 80 - report.ok
        assert report.error_samples
        assert all("InjectedFault" in sample for sample in report.error_samples)
        # Corrupt spill files were written.  Each one either still sits on
        # disk or was read, counted and unlinked, so none goes uncounted.
        corrupt = report.faults_fired.get("cache.spill.write:corrupt", 0)
        assert corrupt > 0
        unparsable = 0
        for path in spill.glob("*.json"):
            try:
                json.loads(path.read_text())
            except ValueError:
                unparsable += 1
        assert cache_stats["spill_read_errors"] + unparsable >= corrupt

    def test_connection_failures_counted_without_retry(self):
        """No retry policy: injected drops become counted lost requests,
        never hangs or unraised exceptions."""
        install_plan(parse_fault_spec("seed=2;client.send:drop=1.0,max=3"))
        with ServerThread(ServerConfig(cache_size=0)) as thread:
            workload = build_workload([(6, 6)], distinct=2, seed=1)
            report = run_loadgen(
                "127.0.0.1", thread.port, workload,
                requests=10, concurrency=2, seed=1, fetch_metrics=False,
            )
        assert report.requests == 10
        assert report.connection_failures == 3
        assert report.errors == report.connection_failures
        assert report.ok == 10 - 3


class TestComputeFault:
    def test_compute_fault_answers_error_not_degraded(self):
        """With no cache to fall back on, a failed compute is answered
        ``error``; nothing is recomputed behind it, and the next request
        computes an exact coloring."""
        install_plan(parse_fault_spec("service.compute:error=1.0,max=1"))
        weights = np.arange(1, 26).reshape(5, 5)
        with ServerThread(ServerConfig(cache_size=0)) as thread:
            with ServiceClient("127.0.0.1", thread.port, timeout=10.0) as client:
                failed = client.color(weights, "BDP")
                again = client.color(weights, "BDP")
                metrics = client.metrics()
        assert failed.status == "error"
        assert "InjectedFault" in failed.error
        assert metrics["counters"]["compute_errors"] == 1
        assert "degraded_total" not in metrics["counters"]
        assert again.ok and again.source == "computed"
        # Differential ground truth against a direct call.
        from repro.core.algorithms.registry import color_with
        from repro.core.problem import IVCInstance

        direct = color_with(IVCInstance.from_grid_2d(weights), "BDP")
        assert np.array_equal(
            again.starts, np.asarray(direct.starts).reshape(5, 5)
        )


class TestSpillCorruption:
    def test_corrupt_spill_reads_counted_and_degrade_to_miss(self, tmp_path):
        install_plan(
            FaultPlan(points=[FaultPoint(site="cache.spill.write", kind="corrupt")])
        )
        cache = ResultCache(capacity=1, spill_dir=tmp_path / "l2")
        entry = CacheEntry(starts=np.array([0, 2]), maxcolor=3, algorithm="BDP")
        cache.put("k1", entry)  # written through the corrupting spill
        cache.put("k2", entry)  # evicts k1 from memory
        assert cache.get("k1") is None  # damaged file reads as a miss
        stats = cache.stats()
        assert stats["spill_read_errors"] == 1
        assert stats["spilled"] == 2
        assert not (tmp_path / "l2" / "k1.json").exists()  # unlinked

    def test_torn_write_keeps_every_intact_entry(self, tmp_path):
        install_plan(parse_fault_spec("cache.spill.write:torn=1.0,max=1"))
        cache = ResultCache(capacity=1, spill_dir=tmp_path / "l2")
        entry = CacheEntry(starts=np.array([0, 2]), maxcolor=3, algorithm="BDP")
        cache.put("k1", entry)  # written torn (fault budget: 1)
        cache.put("k2", entry)
        cache.put("k3", entry)
        install_plan(None)

        fresh = ResultCache(capacity=4, spill_dir=tmp_path / "l2")
        assert fresh.stats()["spill_index_size"] == 3
        for key in ("k2", "k3"):
            served = fresh.get(key)
            assert served is not None and served.maxcolor == 3
        assert fresh.get("k1") is None  # only the torn entry is lost
        assert fresh.stats()["spill_read_errors"] == 1


class TestDrainUnderPressure:
    def test_drain_deadline_answers_stragglers(self):
        """A wedged/slow compute must not hang stop(): queued requests are
        answered overloaded, in-flight ones timeout, within the budget."""
        install_plan(parse_fault_spec("service.compute:slow=1.0,delay=1.0"))
        config = ServerConfig(
            drain_timeout=0.2, cache_size=0, default_timeout=30.0,
        )
        thread = ServerThread(config).start()
        queue = thread.service.queue

        async def pressure():
            clients = [
                AsyncServiceClient("127.0.0.1", thread.port, timeout=30.0)
                for _ in range(4)
            ]
            for c in clients:
                await c.connect()
            # Distinct grids so each request is its own queue entry.
            grids = [np.full((3 + i, 4), 5, dtype=np.int64) for i in range(4)]
            tasks = [
                asyncio.create_task(c.color(g, "GLL", request_id=f"r{i}"))
                for i, (c, g) in enumerate(zip(clients, grids))
            ]
            deadline = time.monotonic() + 10.0
            while queue.depth < 3:  # one computing, the rest queued
                assert time.monotonic() < deadline, "requests never queued"
                await asyncio.sleep(0.005)
            t0 = time.monotonic()
            await asyncio.to_thread(thread.stop)
            stop_elapsed = time.monotonic() - t0
            responses = await asyncio.gather(*tasks)
            for c in clients:
                await c.close()
            return stop_elapsed, responses

        stop_elapsed, responses = asyncio.run(pressure())
        # stop() returned well under the wedged-compute serial time (4s of
        # injected sleeps through one thread) — the drain budget held.
        assert stop_elapsed < 2.0
        statuses = sorted(r.status for r in responses)
        assert statuses == ["overloaded"] * 3 + ["timeout"]
        snapshot = thread.service.metrics.snapshot()
        assert snapshot["counters"].get("drain_expired", 0) == 1


class TestReconnectAfterRestart:
    def test_sync_client_survives_server_restart(self):
        first = ServerThread(ServerConfig(cache_size=0)).start()
        port = first.port
        client = ServiceClient(
            "127.0.0.1", port, timeout=5.0,
            retry=RetryPolicy(retries=8, base_delay=0.05, max_delay=0.2),
        )
        try:
            client.ping()
            baseline = client.color(np.ones((4, 4), dtype=np.int64), "BDP")
            assert baseline.ok
            first.stop()

            second = ServerThread(ServerConfig(cache_size=0, port=port)).start()
            try:
                again = client.color(np.ones((4, 4), dtype=np.int64), "BDP")
                assert again.ok
                assert client.retries_used >= 1
                assert np.array_equal(again.starts, baseline.starts)
            finally:
                second.stop()
        finally:
            client.close()

    def test_client_without_retry_raises_typed_error(self):
        thread = ServerThread(ServerConfig(cache_size=0)).start()
        port = thread.port
        client = ServiceClient("127.0.0.1", port, timeout=2.0)
        try:
            client.ping()
            thread.stop()
            with pytest.raises(ServiceConnectionError) as excinfo:
                client.color(np.ones((3, 3), dtype=np.int64), "BDP",
                             request_id="after-stop")
            assert excinfo.value.host == "127.0.0.1"
            assert excinfo.value.port == port
            assert excinfo.value.request_id == "after-stop"
        finally:
            client.close()


class TestRecolorMirrorAfterLostReply:
    def test_retried_delta_refreshes_the_mirror(self, facade):
        """The delta lands, its reply is dropped, and the idempotent
        re-send reports no changed cells: the mirror must still match a
        cold recolor of the new weights, with no unknown-session re-seed."""
        from repro.incremental.engine import full_recolor

        make, run = facade
        rng = np.random.default_rng(4)
        weights = rng.integers(1, 101, size=(24, 24), dtype=np.int64)
        idx = np.array([30, 300, 555])
        vals = np.array([100, 100, 100])
        updated = weights.copy()
        updated.ravel()[idx] = vals
        cold = full_recolor(updated, "GLF")
        with ServerThread(ServerConfig()) as thread:
            client = make("127.0.0.1", thread.port, timeout=10.0, retry=RETRY)
            try:
                seeded = run(client.recolor_open("s", weights, "GLF"))
                assert seeded.ok
                assert not np.array_equal(seeded.starts, cold)  # delta bites
                install_plan(parse_fault_spec("client.recv:drop=1.0,max=1"))
                response = run(client.recolor_delta("s", idx, vals))
                state = client.recolor_state("s")
            finally:
                run(client.close())
        assert response.ok
        assert client.retries_used == 1
        assert client.reseeds_used == 0
        assert state is not None
        mirror_weights, mirror_starts = state
        assert np.array_equal(mirror_weights, updated)
        assert np.array_equal(mirror_starts, cold)


class TestPeerThatStopsReading:
    """Every write and read is bounded by ``timeout``: a peer that accepts
    and never reads costs a typed error within a few timeouts, not a hang."""

    TIMEOUT = 1.0

    def _raises_in_time(self, run, call) -> ServiceConnectionError:
        t0 = time.monotonic()
        with pytest.raises(ServiceConnectionError) as excinfo:
            run(call())
        assert time.monotonic() - t0 < 5 * self.TIMEOUT
        return excinfo.value

    # A peer deaf from the start times the hello out; one that answers the
    # hello and then stops reading times the ping itself out.
    @pytest.mark.parametrize("listener, request_id", [
        ("deaf_listener", "hello"), ("deaf_after_hello", "ping"),
    ], ids=["hello", "ping"])
    def test_ping(self, facade, request, listener, request_id):
        make, run = facade
        port = request.getfixturevalue(listener)
        client = make("127.0.0.1", port, timeout=self.TIMEOUT)
        try:
            error = self._raises_in_time(run, client.ping)
        finally:
            run(client.close())
        assert (error.host, error.port, error.request_id) == (
            "127.0.0.1", port, request_id,
        )

    def test_large_color_write(self, facade, deaf_after_hello):
        # 32 MiB of payload cannot fit the socket buffers of a peer that
        # stopped reading: the write itself must time out.
        make, run = facade
        client = make("127.0.0.1", deaf_after_hello, timeout=self.TIMEOUT)
        weights = np.ones((2048, 2048), dtype=np.int64)
        try:
            error = self._raises_in_time(
                run, lambda: client.color(weights, "BDP", request_id="big")
            )
        finally:
            run(client.close())
        assert (error.host, error.port, error.request_id) == (
            "127.0.0.1", deaf_after_hello, "big",
        )
