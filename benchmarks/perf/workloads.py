"""The four workloads: seeded inputs, set-up, the timed phase, output checks.

Each workload runs in its own fresh process (see :mod:`benchmarks.perf.harness`)
and returns an :class:`Outcome`.  Inputs are a pure function of the seed:
an op stream is indexed (round ``r``, call ``k``, request ``i``), so the
first ops of a stream are the same however long a run lasts — which is
what lets a digest over a fixed prefix of the outputs be pinned for seeds
0 and 1 in ``pins.json``.

The timed phase runs whole units (a round of color calls, one tiled call,
one request) until ``seconds`` of op time have been measured and the pinned
prefix is complete.  Every output is checked outside the timed region; a
failed check fails the whole workload.

In a traced run every op is made twice, once with the layer wrappers
attached and once with them detached, in seeded order; the two sides give
the tracing overhead (see :func:`sides`).  The second call of a pair gets
inputs of the same size but other values (the grid reversed along every
axis, or another synthetic source): the program caches schedules by
content, so the same grid twice would make the second call cheaper.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from benchmarks.perf.trace import Tracer, read_spans

#: Interval lengths of every generated grid are uniform in ``[1, 999]``.
W_LOW, W_HIGH = 1, 1000

#: The pinned prefix of the color workloads (rounds) and of tiled-ooc (calls).
PIN_ROUNDS = 1
PIN_CALLS = 1


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """The generator of unit ``index`` of input ``stream`` under ``seed``."""
    return np.random.default_rng([seed, stream, index])


def _weights(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(W_LOW, W_HIGH, size=shape, dtype=np.int64)


class Digest:
    """blake2b over int64 arrays, in the order they are added."""

    def __init__(self) -> None:
        self._h = hashlib.blake2b(digest_size=16)

    def add(self, array) -> None:
        self._h.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


@dataclass
class Op:
    """One timed call or request.  Ops of one ``kind`` do the same work
    on inputs of the same size; ``traced`` marks the wrapped side of a
    traced run's pair."""

    kind: str
    seconds: float
    cells: int
    ok: bool = True
    traced: bool = False


@dataclass
class Outcome:
    """What a workload did, for the harness to turn into metrics.

    ``work_s`` is the summed op time: ops run one at a time, so it is the
    time throughput divides by.
    """

    setup_s: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    work_s: float = 0.0
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    phases: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def record(self, op: Op) -> None:
        self.ops.append(op)
        self.work_s += op.seconds


def sides(tracer: Tracer, coin: np.random.Generator) -> tuple[bool, ...]:
    """How to make one op: once, untraced, unless ``tracer`` is installed;
    then twice, with the wrappers attached (``True``) and detached, in an
    order ``coin`` picks so that neither side always runs first."""
    if not tracer.bindings:
        return (False,)
    return (True, False) if coin.random() < 0.5 else (False, True)


def timed(tracer: Tracer, traced: bool, call: Callable[[], object]):
    """``call()`` with the wrappers attached and recording if ``traced``,
    else detached: ``(result, seconds, exception or None)``."""
    if traced:
        tracer.attach()
        tracer.phase = "timed"
    else:
        tracer.detach()
    t0 = perf_counter()
    try:
        result, exc = call(), None
    except Exception as error:  # counted as a failed op, reported by the harness
        result, exc = None, error
    seconds = perf_counter() - t0
    tracer.phase = None
    return result, seconds, exc


def _violations(weights: np.ndarray, starts: np.ndarray) -> int:
    """Conflicting edges of a grid coloring, via ``Coloring.violations``."""
    from repro.core import Coloring, IVCInstance

    make = IVCInstance.from_grid_2d if weights.ndim == 2 else IVCInstance.from_grid_3d
    instance = make(weights)
    return len(Coloring(instance, np.asarray(starts).ravel()).violations())


# ---------------------------------------------------------------- color-*
def _cross(shapes, algorithms) -> tuple:
    return tuple((shape, alg) for shape in shapes for alg in algorithms)


_ALGS = ("GLL", "GLF", "GZO", "BDP")

#: ``(shape, algorithm)`` pairs; one round calls each once, shuffled.
COLOR = {
    ("color-medium", "full"): _cross(((128, 128), (256, 256), (32, 32, 32), (40, 40, 40)), _ALGS),
    ("color-medium", "smoke"): _cross(((16, 16), (24, 24), (6, 6, 6), (8, 8, 8)), _ALGS),
    # Five pairs, so the median call falls inside one pair's calls.
    ("color-large", "full"): (
        _cross(((768, 768),), ("GLL", "GLF", "BDP")) + _cross(((64, 64, 64),), ("GLL", "BDP"))
    ),
    ("color-large", "smoke"): (
        _cross(((64, 64),), ("GLL", "GLF", "BDP")) + _cross(((10, 10, 10),), ("GLL", "BDP"))
    ),
}


def color_round(pairs: tuple, seed: int, r: int) -> list[tuple]:
    """Round ``r``: ``(shape, algorithm, weights)`` in call order."""
    rng = _rng(seed, 1, r)
    order = rng.permutation(len(pairs))
    return [(*pairs[k], _weights(rng, pairs[k][0])) for k in order]


def _lookups(stats: dict) -> dict:
    return {
        key: sum(cache[key] for cache in stats.values()) for key in ("hits", "misses")
    }


def run_color(
    pairs: tuple,
    *,
    seed: int,
    seconds: float,
    setup_reps: int,
    tracer: Tracer,
) -> Outcome:
    """``repro.api.color`` on every pair; set-up is one cold call per pair
    in a fresh execution context (fresh substrate caches), repeated."""
    from repro import api
    from repro.kernels.substrate import substrate_stats
    from repro.runtime.context import ExecutionContext, use_context

    out = Outcome()
    t_setup = perf_counter()
    for rep in range(setup_reps):
        ctx = ExecutionContext.from_env()
        rng = _rng(seed, 0, rep)
        grids = [(alg, _weights(rng, shape)) for shape, alg in pairs]
        tracer.phase = "setup"
        t0 = perf_counter()
        with use_context(ctx):
            for alg, weights in grids:
                api.color(weights, alg)
        out.setup_s.append(perf_counter() - t0)
        tracer.phase = None
    out.phases["setup"] = perf_counter() - t_setup

    digest = Digest()
    coin = _rng(seed, 7, 0)
    before = _lookups(substrate_stats(ctx))
    checks = 0.0
    rounds = 0
    t_timed = perf_counter()
    with use_context(ctx):
        while out.work_s < seconds or rounds < PIN_ROUNDS:
            for shape, alg, weights in color_round(pairs, seed, rounds):
                kind = f"{alg}{'x'.join(map(str, shape))}"
                for n, traced in enumerate(sides(tracer, coin)):
                    grid = weights if n == 0 else np.ascontiguousarray(np.flip(weights))
                    result, dt, exc = timed(tracer, traced, lambda: api.color(grid, alg))
                    out.record(Op(kind, dt, grid.size, exc is None, traced))
                    t0 = perf_counter()
                    if exc is not None:
                        out.error(f"{kind}: {type(exc).__name__}: {exc}")
                    else:
                        bad = len(result.coloring.violations())
                        if bad:
                            out.error(f"{kind} round {rounds}: {bad} conflicting edges")
                        if rounds < PIN_ROUNDS and n == 0:
                            digest.add(result.starts)
                    checks += perf_counter() - t0
            rounds += 1
    after = _lookups(substrate_stats(ctx))
    out.phases["timed"] = perf_counter() - t_timed - checks
    out.phases["checks"] = checks
    out.digest = digest.hexdigest()
    out.counts["substrate"] = {k: after[k] - before[k] for k in after}
    return out


def color_pin(pairs: tuple, seed: int) -> str:
    """The pinned-prefix digest from forced monolithic kernel runs."""
    from repro import api

    digest = Digest()
    for r in range(PIN_ROUNDS):
        for _shape, alg, weights in color_round(pairs, seed, r):
            digest.add(api.color(weights, alg, runtime="kernels").starts)
    return digest.hexdigest()


# ---------------------------------------------------------------- tiled-ooc
@dataclass(frozen=True)
class TiledSpec:
    """A 2D synthetic grid tiled into outer-axis bands of ``tile`` cells."""

    shape: tuple
    tile: tuple
    jobs: int
    check_rows: int


TILED = {
    "full": TiledSpec((1024, 1024), (1024, 128), 2, check_rows=128),
    "smoke": TiledSpec((96, 96), (96, 16), 2, check_rows=16),
}


def tiled_source(shape, seed: int, stream: int, k: int):
    """The synthetic weight source of call ``k``."""
    from repro.data import SyntheticWeightSource

    source_seed = int(_rng(seed, stream, k).integers(1 << 62))
    return SyntheticWeightSource(shape, seed=source_seed, low=W_LOW, high=W_HIGH)


def _check_tiled(
    spec: TiledSpec, source, path: Path, maxcolor: int, digest: Optional[Digest]
) -> list[str]:
    """Band-wise checks of an ``out=`` memmap: conflicts (each band carries
    one row of the previous so every edge is seen), maxcolor, digest."""
    starts = np.load(path, mmap_mode="r")
    X, Y = spec.shape
    errors = []
    if starts.shape != (X, Y):
        return [f"out= memmap has shape {starts.shape}, expected {(X, Y)}"]
    bad = 0
    seen_max = 0
    for r0 in range(0, X, spec.check_rows):
        lo, r1 = max(r0 - 1, 0), min(r0 + spec.check_rows, X)
        weights = source.region(((lo, r1), (0, Y)))
        band = np.array(starts[lo:r1])
        bad += _violations(weights, band)
        seen_max = max(seen_max, int((band + weights).max()))
        if digest is not None:
            digest.add(band[r0 - lo:])
    if bad:
        errors.append(f"{bad} conflicting edges")
    if seen_max != maxcolor:
        errors.append(f"maxcolor {maxcolor} reported, {seen_max} in the output")
    return errors


def run_tiled(
    spec: TiledSpec,
    *,
    seed: int,
    seconds: float,
    setup_reps: int,
    tracer: Tracer,
    workdir: Path,
) -> Outcome:
    """``repro.tiling.color_tiled`` into an ``out=`` memmap.  Nothing
    persists between calls (each forks its own pool), so set-up is a
    full-size warm-up call on other weights, repeated."""
    from repro.tiling import color_tiled, padded_box

    out = Outcome()
    path = workdir / "tiled-out.npy"
    t_setup = perf_counter()
    for rep in range(setup_reps):
        source = tiled_source(spec.shape, seed, 0, rep)
        tracer.phase = "setup"
        t0 = perf_counter()
        color_tiled(source, tile_shape=spec.tile, jobs=spec.jobs, out=path)
        out.setup_s.append(perf_counter() - t0)
        tracer.phase = None
        path.unlink()
    out.phases["setup"] = perf_counter() - t_setup

    digest = Digest()
    coin = _rng(seed, 7, 0)
    tiled_counts = []
    checks = 0.0
    calls = 0
    t_timed = perf_counter()
    while out.work_s < seconds or calls < PIN_CALLS:
        for n, traced in enumerate(sides(tracer, coin)):
            source = tiled_source(spec.shape, seed, 2 + n, calls)
            result, dt, exc = timed(
                tracer, traced,
                lambda: color_tiled(source, tile_shape=spec.tile, jobs=spec.jobs, out=path),
            )
            out.record(Op("color_tiled", dt, source.num_cells, exc is None, traced))
            t0 = perf_counter()
            if exc is not None:
                out.error(f"call {calls}: {type(exc).__name__}: {exc}")
            else:
                if traced:
                    tiled_counts.append({
                        "elapsed": result.elapsed,
                        "seam_elapsed": result.seam_elapsed,
                        "tile_busy": sum(rec.elapsed or 0.0 for rec in result.records),
                        "seam_cells": result.seam_cells,
                        "padded_cells": sum(
                            int(np.prod([hi - lo for lo, hi in padded_box(t.box, spec.shape)]))
                            for t in result.plan.tiles
                        ),
                        "cells": source.num_cells,
                        "jobs": spec.jobs,
                    })
                for message in _check_tiled(
                    spec, source, path, result.maxcolor,
                    digest if calls < PIN_CALLS and n == 0 else None,
                ):
                    out.error(f"call {calls}: {message}")
            if path.exists():
                path.unlink()
            checks += perf_counter() - t0
        calls += 1
    out.phases["timed"] = perf_counter() - t_timed - checks
    out.phases["checks"] = checks
    out.digest = digest.hexdigest()
    out.counts["tiled"] = tiled_counts
    return out


def tiled_pin(spec: TiledSpec, seed: int) -> str:
    """Monolithic kernel GLL on each pinned call's materialized grid."""
    from repro import api

    digest = Digest()
    for k in range(PIN_CALLS):
        source = tiled_source(spec.shape, seed, 2, k)
        grid = source.region(tuple((0, d) for d in spec.shape))
        digest.add(api.color(grid, "GLL", runtime="kernels").starts)
    return digest.hexdigest()


# ---------------------------------------------------------------- serve-mixed
@dataclass(frozen=True)
class ServeSpec:
    """One client on one connection to one worker, one request at a time.
    Every ``delta_every``-th op is a recolor delta, alternating between a
    GLF and a GLL session; the others are BDP color requests,
    ``fresh_share`` of them fresh grids and the rest zipf-drawn from a pool
    prewarmed into the worker's cache.

    The mix is assumed, not recorded from a caller: the pool shapes, BDP and
    zipf(1.1) are those of ``benchmarks/bench_service.py``'s scaling run,
    4-cell deltas are ``loadgen --recolor``'s default, and the 25 % fresh
    share and one delta per five color requests are choices of this
    benchmark."""

    pool_shapes: tuple
    pool_size: int
    fresh_shape: tuple
    session_shape: tuple
    pin_ops: int
    fresh_share: float = 0.25
    zipf_s: float = 1.1
    delta_cells: int = 4
    delta_every: int = 6


SERVE = {
    "full": ServeSpec(((32, 32), (48, 48)), 32, (48, 48), (128, 128), pin_ops=240),
    "smoke": ServeSpec(((8, 8), (12, 12)), 4, (12, 12), (16, 16), pin_ops=24),
}

#: Session name -> algorithm; deltas alternate between them.
SESSIONS = (("glf", "GLF"), ("gll", "GLL"))


def serve_pool(spec: ServeSpec, seed: int) -> list[np.ndarray]:
    rng = _rng(seed, 5, 0)
    shapes = spec.pool_shapes
    return [_weights(rng, shapes[i % len(shapes)]) for i in range(spec.pool_size)]


def serve_sessions(spec: ServeSpec, seed: int) -> dict[str, np.ndarray]:
    rng = _rng(seed, 6, 0)
    return {name: _weights(rng, spec.session_shape) for name, _alg in SESSIONS}


class ServeStream:
    """The op sequence: ``("color", pool index or None, weights)`` or
    ``("recolor", session, flat indices, new weights)``."""

    def __init__(self, spec: ServeSpec, seed: int, pool: list[np.ndarray]) -> None:
        self.spec = spec
        self.pool = pool
        self.colors = _rng(seed, 3, 0)
        self.deltas = _rng(seed, 4, 0)
        self.cells = int(np.prod(spec.session_shape))
        self.count = 0
        ranks = np.arange(1, spec.pool_size + 1, dtype=float)
        self.p = ranks ** -spec.zipf_s / (ranks ** -spec.zipf_s).sum()

    def next(self) -> tuple:
        i = self.count
        self.count += 1
        every, size = self.spec.delta_every, self.spec.delta_cells
        if i % every == every - 1:
            name = SESSIONS[(i // every) % len(SESSIONS)][0]
            idx = np.sort(self.deltas.choice(self.cells, size, replace=False))
            return "recolor", name, idx.astype(np.int64), _weights(self.deltas, size)
        if self.colors.random() < self.spec.fresh_share:
            return "color", None, _weights(self.colors, self.spec.fresh_shape)
        k = int(self.colors.choice(self.spec.pool_size, p=self.p))
        return "color", k, self.pool[k]


class _Worker:
    """One ``ColoringService`` in a child process, journaling sessions
    under its own spill directory."""

    def __init__(self, workdir: Path, tag: str, spans: Optional[Path]) -> None:
        self.dir = workdir / f"worker-{tag}"
        self.dir.mkdir()
        ready = self.dir / "port"
        cmd = [
            sys.executable, "-m", "benchmarks.perf.serve_worker",
            "--spill-dir", str(self.dir / "spill"), "--ready-file", str(ready),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.log = open(self.dir / "worker.log", "wb")
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.proc.kill()
                self.stop()
                raise RuntimeError(
                    "service worker failed to start: "
                    + (self.dir / "worker.log").read_text(errors="replace")[-2000:]
                )
            time.sleep(0.01)
        self.port = int(ready.read_text())

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(port=self.port, wire="binary").connect()

    def stop(self, client=None) -> None:
        """Ask for a graceful drain (through ``client``) and reap the child."""
        if client is not None:
            client.shutdown()
            client.close()
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def _hist_percentile(after: dict, before: Optional[dict], p: float) -> float:
    """Percentile (seconds) of the samples a histogram gained between two
    ``include_state`` snapshots, by the registry's own bucket rule."""
    counts = list(after["buckets"])
    if before is not None:
        counts = [a - b for a, b in zip(counts, before["buckets"])]
    rank = max(1, int(round(p / 100.0 * sum(counts))))
    seen = 0
    for idx, count in enumerate(counts):
        seen += count
        if seen >= rank:
            bounds = after["bounds"]
            return min(bounds[idx] if idx < len(bounds) else after["max"], after["max"])
    return 0.0


def _service_counts(before: dict, after: dict, color_requests: int) -> dict:
    """Deltas of the worker's own counters over the timed phase."""

    def counter(name: str) -> int:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    out = {
        "requests": color_requests,
        "cache_hits": counter("cache_hits"),
        "fastpath_hits": counter("fastpath_hits"),
    }
    compute = after["histograms"].get("compute_seconds")
    if compute:
        then = before["histograms"].get("compute_seconds")
        out["compute_p50_ms"] = 1000.0 * _hist_percentile(compute, then, 50)
    lookups = {
        key: sum(
            after["substrate"][cache][key] - before["substrate"][cache][key]
            for cache in after["substrate"]
        )
        for key in ("hits", "misses")
    }
    return {"service": out, "substrate": lookups}


@dataclass
class _Server:
    """A worker, the client connected to it, and its set-up answers."""

    worker: _Worker
    client: object
    warm: list
    seeds: dict


def _start_server(workdir: Path, tag: str, spans: Optional[Path], prepared, sessions) -> _Server:
    """Start a worker, connect, prewarm the pool, seed both sessions."""
    worker = _Worker(workdir, tag, spans)
    client = worker.client()
    warm = [client.color_prepared(p) for p in prepared]
    seeds = {name: client.recolor_open(name, sessions[name], alg) for name, alg in SESSIONS}
    return _Server(worker, client, warm, seeds)


def run_serve(
    spec: ServeSpec,
    *,
    seed: int,
    seconds: float,
    setup_reps: int,
    tracer: Tracer,
    workdir: Path,
) -> Outcome:
    """The op stream against one service worker, one request at a time.

    Set-up — start the worker, connect, prewarm the pool, seed the two
    recolor sessions — is repeated with a fresh worker each time; the last
    one serves the timed phase.  A traced run sets up two workers, one with
    the layer wrappers installed (it writes its spans at shutdown) and one
    without, and sends every op to both (see :func:`sides`).
    """
    from repro import api
    from repro.service.client import prepare_color_request

    out = Outcome()
    pool = serve_pool(spec, seed)
    prepared = [prepare_color_request(w, "BDP") for w in pool]
    sessions = serve_sessions(spec, seed)
    worker_spans = workdir / "worker-spans.jsonl"
    # One worker per side of :func:`sides`; ``True`` has the wrappers.
    worker_sides = (True, False) if tracer.bindings else (False,)

    t_setup = perf_counter()
    for rep in range(setup_reps):
        tracer.phase = "setup"
        t0 = perf_counter()
        servers = {
            traced: _start_server(
                workdir, f"{rep}-{int(traced)}", worker_spans if traced else None,
                prepared, sessions,
            )
            for traced in worker_sides
        }
        out.setup_s.append(perf_counter() - t0)
        tracer.phase = None
        if rep < setup_reps - 1:
            for server in servers.values():
                server.worker.stop(server.client)
    out.phases["setup"] = perf_counter() - t_setup

    for server in servers.values():
        for k, response in enumerate(server.warm):
            if not response.ok or _violations(pool[k], response.starts):
                out.error(f"pool grid {k}: prewarm answer {response.status} or invalid")
        for name, response in server.seeds.items():
            if not response.ok:
                out.error(f"session {name}: seed {response.status} {response.error}")

    stream = ServeStream(spec, seed, pool)
    coin = _rng(seed, 7, 0)
    expected = {name: w.copy() for name, w in sessions.items()}
    session_cells = int(np.prod(spec.session_shape))
    digest = Digest()
    colors = deltas = fallbacks = cone_cells = 0
    checks = 0.0
    # The worker whose counters and spans the per-layer metrics read.
    primary = worker_sides[0]
    before = servers[primary].client.metrics(include_state=True)
    t_timed = perf_counter()
    i = 0
    while out.work_s < seconds or i < spec.pin_ops:
        op = stream.next()
        if op[0] == "recolor":
            _, name, idx, new = op
            expected[name].ravel()[idx] = new
        else:
            _, k, weights = op
            request = prepared[k] if k is not None else prepare_color_request(weights, "BDP")
        for n, traced in enumerate(sides(tracer, coin)):
            server = servers[traced]
            if op[0] == "color":
                response, dt, exc = timed(
                    tracer, traced, lambda: server.client.color_prepared(request)
                )
                kind = "color-fresh" if k is None else "color-pool"
                cells = weights.size
            else:
                response, dt, exc = timed(
                    tracer, traced,
                    lambda: server.client.recolor_delta(name, idx, new, reseed=False),
                )
                kind = f"recolor-{name}-{getattr(response, 'mode', '')}"
                cells = session_cells
            ok = exc is None and response.ok
            out.record(Op(kind, dt, cells, ok, traced))

            t0 = perf_counter()
            if exc is not None:
                out.error(f"op {i}: {type(exc).__name__}: {exc}")
            elif not response.ok:
                out.error(f"op {i}: {response.status} {response.error}")
            elif op[0] == "color":
                if k is not None and not np.array_equal(response.starts, server.warm[k].starts):
                    out.error(f"op {i}: pool grid {k} answered differently than at prewarm")
                elif k is None and _violations(weights, response.starts):
                    out.error(f"op {i}: conflicting edges")
                if i < spec.pin_ops and n == 0:
                    digest.add(response.starts)
                colors += traced == primary
            else:
                if traced == primary:
                    deltas += 1
                    fallbacks += response.mode == "fallback"
                    cone_cells += int(response.recolor.get("cells_recomputed", 0))
                if i < spec.pin_ops and n == 0:
                    digest.add(response.changed_idx)
                    digest.add(response.changed_starts)
            checks += perf_counter() - t0
        i += 1
    window = (t_timed, perf_counter())
    out.phases["timed"] = window[1] - window[0] - checks

    after = servers[primary].client.metrics(include_state=True)
    for server in servers.values():
        server.worker.stop(server.client)

    t0 = perf_counter()
    for name, alg in SESSIONS:
        cold = api.color(expected[name], alg).starts
        for server in servers.values():
            weights, starts = server.client.recolor_state(name)
            if not np.array_equal(weights, expected[name]) or not np.array_equal(starts, cold):
                out.error(f"session {name}: final starts differ from a cold {alg} color")
    out.phases["checks"] = checks + perf_counter() - t0

    out.digest = digest.hexdigest()
    out.counts.update(_service_counts(before, after, colors))
    out.counts["recolor"] = {
        "deltas": deltas, "fallbacks": fallbacks, "cone_cells": cone_cells,
    }
    for span in read_spans(worker_spans):
        if span.start < window[0]:
            span.phase = "setup"
        elif span.start <= window[1]:
            span.phase = "timed"
        else:
            continue
        out.spans.append(span)
    return out


def serve_pin(spec: ServeSpec, seed: int) -> str:
    """Forced monolithic kernel colorings of the pinned op prefix: each
    color request's grid, and after each delta its session grid from
    scratch (its changed cells against the previous state)."""
    from repro import api

    algorithms = dict(SESSIONS)
    state = serve_sessions(spec, seed)
    starts = {
        name: api.color(w, algorithms[name], runtime="kernels").starts.ravel()
        for name, w in state.items()
    }
    stream = ServeStream(spec, seed, serve_pool(spec, seed))
    digest = Digest()
    for _ in range(spec.pin_ops):
        op = stream.next()
        if op[0] == "color":
            digest.add(api.color(op[2], "BDP", runtime="kernels").starts)
            continue
        _, name, idx, new = op
        state[name].ravel()[idx] = new
        fresh = api.color(state[name], algorithms[name], runtime="kernels").starts.ravel()
        changed = np.flatnonzero(fresh != starts[name])
        digest.add(changed)
        digest.add(fresh[changed])
        starts[name] = fresh
    return digest.hexdigest()


# ---------------------------------------------------------------- dispatch
def run(
    name: str,
    scale: str,
    *,
    seed: int,
    seconds: float,
    setup_reps: int,
    tracer: Tracer,
    workdir: Path,
) -> Outcome:
    """Run workload ``name`` at ``scale`` (see the module docstring)."""
    common = dict(seed=seed, seconds=seconds, setup_reps=setup_reps, tracer=tracer)
    if name == "tiled-ooc":
        return run_tiled(TILED[scale], workdir=workdir, **common)
    if name == "serve-mixed":
        return run_serve(SERVE[scale], workdir=workdir, **common)
    return run_color(COLOR[(name, scale)], **common)


def pin(name: str, seed: int) -> str:
    """The digest a correct full-scale run of ``name`` must produce,
    computed from monolithic kernel colorings of the same inputs."""
    if name == "tiled-ooc":
        return tiled_pin(TILED["full"], seed)
    if name == "serve-mixed":
        return serve_pin(SERVE["full"], seed)
    return color_pin(COLOR[(name, "full")], seed)
