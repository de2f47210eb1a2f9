"""Command-line interface: ``stencil-ivc <subcommand>``.

``stencil-ivc`` follows the standard Unix conventions for options and
arguments: ``stencil-ivc --help`` summarizes the subcommands, and every
subcommand answers ``stencil-ivc <subcommand> --help`` with its own options.
Options are recognized by their leading double-dashes, e.g. ``--jobs``.

Subcommands
-----------
``solve``       Color a weight grid from a ``.npy``/``.txt`` file.
``algorithms``  List the registered coloring heuristics and capabilities.
``suite``       Run the Section VI experiment suite (2D or 3D) and print the
                runtime comparison and performance profile.
``optimal``     MILP-solve a suite's instances and compare heuristics to the
                optimum (Section VI.D).
``stkde``       Run the STKDE integration experiment (Section VII).
``npc``         Demonstrate the NAE-3SAT reduction (Section IV).
``tile``        Color a large grid out-of-core: one streaming pass over
                outer-axis bands, digested per tile, bit-identical
                to the monolithic GLL kernel.
``serve``       Run the online coloring service: an asyncio TCP server with
                shape-batched dispatch, a content-addressed result cache,
                admission control, and a metrics endpoint.
``loadgen``     Drive a running service with a repeated-shape workload and
                report throughput/latency (optionally verifying every served
                coloring against a direct ``color_with`` call).  With
                ``--recolor N`` it switches to delta-stream mode: seed grids
                into recolor sessions and stream sparse weight deltas through
                the ``recolor`` verb.
``campaign``    Declarative experiment campaigns (``campaigns/*.toml``):
                ``plan`` compiles a spec and prints the deterministic
                (instance × algorithm) grid, ``run`` executes it through the
                crash-supervised engine into a resumable artifact dir,
                ``harvest`` folds the run logs + merged metrics into one
                versioned ``harvest.json``, and ``report`` renders the
                paper's figure tables (txt/SVG/Markdown/HTML/JSON) from it.
``recolor``     Offline incremental-recoloring demo: color a seeded grid,
                apply a sequence of sparse weight deltas through the
                dirty-region engine, and report cone sizes, fallbacks, and
                speedup versus recoloring from scratch.

The experiment subcommands (``suite``, ``optimal``, ``stkde``) accept
``--jobs N`` to fan their (instance × algorithm) grid across worker
processes via the batch engine; ``--jobs 0`` (the default) uses all cores.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _load_weights(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        return np.load(path)
    return np.loadtxt(path, dtype=np.int64)


def _grid_instance(weights: np.ndarray, name: str):
    """The stencil instance of a 2D or 3D weight grid, or ``None`` after
    printing why there is none."""
    from repro.core.problem import IVCInstance

    if weights.ndim not in (2, 3):
        print(f"error: expected a 2D or 3D weight grid, got shape {weights.shape}")
        return None
    return IVCInstance.from_grid(weights, name=name)


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.core.bounds import lower_bound
    from repro.core.algorithms.registry import color_with

    weights = _load_weights(args.file)
    instance = _grid_instance(weights, args.file)
    if instance is None:
        return 2
    coloring = color_with(instance, args.algorithm).check()
    lb = lower_bound(instance)
    print(f"instance : {instance.name} {weights.shape}")
    print(f"algorithm: {args.algorithm}")
    print(f"maxcolor : {coloring.maxcolor}")
    print(f"bound    : {lb}  (ratio {coloring.maxcolor / max(lb, 1):.4f})")
    print(f"time     : {coloring.elapsed * 1e3:.2f} ms")
    if args.output:
        np.save(args.output, coloring.as_grid())
        print(f"starts saved to {args.output}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from repro.core.bounds import (
        clique_block_bound,
        lower_bound,
        max_weight_bound,
        maxpair_bound,
        odd_cycle_bound,
    )

    weights = _load_weights(args.file)
    instance = _grid_instance(weights, args.file)
    if instance is None:
        return 2
    print(f"instance        : {instance.name} {weights.shape}")
    print(f"max weight      : {max_weight_bound(instance)}")
    print(f"maxpair         : {maxpair_bound(instance)}")
    print(f"clique blocks   : {clique_block_bound(instance)}")
    if args.odd_cycles:
        print(f"odd cycles (<={args.max_cycle_len}): "
              f"{odd_cycle_bound(instance, max_len=args.max_cycle_len)}")
    print(f"combined bound  : "
          f"{lower_bound(instance, use_odd_cycles=args.odd_cycles, odd_cycle_max_len=args.max_cycle_len)}")
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    from repro.core.bounds import lower_bound
    from repro.core.exact.milp import solve_milp

    weights = _load_weights(args.file)
    instance = _grid_instance(weights, args.file)
    if instance is None:
        return 2
    result = solve_milp(instance, time_limit=args.time_limit)
    print(f"instance : {instance.name} {weights.shape}")
    print(f"status   : {result.status} (proven optimal: {result.proven_optimal})")
    if result.maxcolor is not None:
        print(f"maxcolor : {result.maxcolor}  (lower bound {lower_bound(instance)})")
    if result.coloring is not None and args.output:
        np.save(args.output, result.coloring.as_grid())
        print(f"starts saved to {args.output}")
    return 0 if result.status in ("optimal", "timeout") else 1


def cmd_algorithms(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.core.algorithms.registry import REGISTRY
    from repro.runtime.context import get_context

    config = get_context().config

    def fast_column(spec) -> str:
        """Whether the spec has kernels, and whether the active config
        runs them (sourced from the registry and the context's
        :class:`~repro.runtime.config.RuntimeConfig`)."""
        if not spec.kernels:
            return "-"
        return "kernel" if config.fast_paths else "kernel (off)"

    specs = REGISTRY.specs(include_extensions=not args.paper_only)
    rows = [
        (
            spec.name,
            "/".join(f"{d}D" for d in spec.supported_dims),
            "graph" if not spec.needs_geometry else "stencil",
            "extension" if spec.is_extension else "paper",
            fast_column(spec),
            spec.description,
        )
        for spec in specs
    ]
    print(
        format_table(
            ("name", "dims", "needs", "origin", "fast path", "description"), rows
        )
    )
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.analysis.performance_profiles import profile_to_text
    from repro.analysis.reporting import banner, format_table
    from repro.analysis.stats import runtime_summary
    from repro.data.instances import SuiteConfig, build_suite_2d, build_suite_3d
    from repro.data.synthetic import standard_datasets

    from repro.experiments import run_suite

    if args.data_dir:
        from repro.data.loader import load_directory

        datasets = load_directory(args.data_dir)
    else:
        datasets = standard_datasets(scale=args.scale)
    config = SuiteConfig(dim_cap=args.dim_cap, max_cells=args.max_cells)
    if args.dim == 2:
        instances = build_suite_2d(datasets, config)
    else:
        instances = build_suite_3d(datasets, config)
    if args.resume and not args.run_log:
        print("error: --resume needs --run-log (the log to resume from)",
              file=sys.stderr)
        return 2
    print(banner(f"{args.dim}D suite: {len(instances)} instances"))
    from pathlib import Path

    resume_from = (
        args.run_log if args.resume and Path(args.run_log).exists() else None
    )
    result = run_suite(
        instances,
        jobs=args.jobs,
        fast_paths={"kernels": True, "reference": False}.get(args.runtime),
        log_path=args.run_log or None,
        on_error="record",
        max_cell_retries=args.retries,
        resume_from=resume_from,
    )
    if result.cells_resumed or result.pool_restarts or result.cells_retried:
        print(
            f"resilience : {result.cells_resumed} cells resumed from the run "
            f"log, {result.pool_restarts} pool restarts, "
            f"{result.cells_retried} cell retries"
        )
    if result.errors:
        print(f"! {len(result.errors)} failed cells (excluded from the profile):")
        for rec in result.errors:
            print(f"!   {rec.algorithm} on {rec.instance} [{rec.status}]: {rec.error}")
        result = result.subset(result.ok_indices())
        print()
        if result.num_instances == 0:
            print("every instance had a failed cell — nothing left to profile")
            return 1
    print(profile_to_text(result.profile()))
    print()
    rows = [
        (name, s["total"], s["mean"] * 1e3, s["max"] * 1e3)
        for name, s in runtime_summary(result.times).items()
    ]
    print(format_table(("algorithm", "total s", "mean ms", "max ms"), rows))
    return 0


def cmd_optimal(args: argparse.Namespace) -> int:
    from repro.analysis.performance_profiles import profile_to_text
    from repro.analysis.reporting import banner
    from repro.analysis.stats import fraction_matching
    from repro.data.instances import SuiteConfig, build_suite_2d, build_suite_3d
    from repro.data.synthetic import standard_datasets
    from repro.experiments import run_suite, solve_suite_optimal

    datasets = standard_datasets(scale=args.scale)
    config = SuiteConfig(dim_cap=args.dim_cap, max_cells=args.max_cells)
    instances = build_suite_2d(datasets, config) if args.dim == 2 else build_suite_3d(datasets, config)
    result = run_suite(instances, jobs=args.jobs)
    solved, optima = solve_suite_optimal(result, time_limit=args.time_limit)
    print(banner(f"MILP solved {len(solved)}/{result.num_instances} instances"))
    sub = result.subset(solved)
    print(profile_to_text(sub.profile(best=[float(v) for v in optima])))
    lbs = [float(b) for b in sub.lower_bounds]
    print(f"\nmax-clique bound == optimum on "
          f"{fraction_matching([float(v) for v in optima], lbs) * 100:.1f}% of solved instances")
    return 0


def cmd_stkde(args: argparse.Namespace) -> int:
    from repro.analysis.regression import linear_fit
    from repro.analysis.reporting import banner, format_table
    from repro.core.algorithms.registry import ALGORITHMS
    from repro.core.coloring import Coloring
    from repro.data.synthetic import standard_datasets
    from repro.engine import run_grid
    from repro.stkde.runtime import simulate_schedule
    from repro.stkde.tasks import box_decomposition

    names = list(ALGORITHMS)
    for dataset in standard_datasets(scale=args.scale):
        h_s = dataset.axis_length(0) / args.bandwidth_divisor
        h_t = dataset.axis_length(2) / args.bandwidth_divisor
        problem = box_decomposition(dataset, h_s, h_t, voxel_dims=(16, 16, 16))
        instance = problem.instance
        # The coloring cells run through the batch engine (capturing start
        # vectors); the schedule simulation replays them in this process.
        records = run_grid(
            [instance], names, jobs=args.jobs, capture_starts=True,
            log_path=args.run_log or None,
        )
        rows = []
        colors, runtimes = [], []
        for record in records:
            if not record.ok:
                rows.append((record.algorithm, "-", "-", record.error))
                continue
            coloring = Coloring(
                instance,
                np.asarray(record.starts, dtype=np.int64),
                algorithm=record.algorithm,
                elapsed=record.elapsed,
            )
            trace = simulate_schedule(coloring, num_workers=args.workers)
            rows.append((record.algorithm, coloring.maxcolor, trace.makespan,
                         trace.parallel_efficiency))
            colors.append(float(coloring.maxcolor))
            runtimes.append(trace.makespan)
        print(banner(f"{dataset.name}: boxes {problem.box_dims}, P={args.workers}"))
        print(format_table(("algorithm", "maxcolor", "sim time", "efficiency"), rows))
        fit = linear_fit(colors, runtimes)
        print(f"colors-vs-runtime: slope={fit.slope:.4g} r={fit.rvalue:.3f}\n")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    from repro.core.algorithms.registry import color_with
    from repro.core.bounds import clique_block_bound
    from repro.data.loader import load_events_csv
    from repro.data.partition import (
        balanced_rectilinear_instance,
        uniform_rectilinear_instance,
    )

    dataset = load_events_csv(
        args.file, x_column=args.x_column, y_column=args.y_column, t_column=args.t_column
    )
    parts = (args.parts_x, args.parts_y)
    bw = (args.bandwidth_x, args.bandwidth_y)
    balanced = balanced_rectilinear_instance(
        dataset, axes=(0, 1), parts=parts, bandwidths=bw
    )
    uniform = uniform_rectilinear_instance(dataset, axes=(0, 1), parts=parts)
    print(f"dataset  : {dataset.name} ({dataset.num_points} events)")
    print(f"parts    : {parts}, bandwidths {bw}")
    for label, inst in (("uniform", uniform), ("balanced", balanced)):
        coloring = color_with(inst, args.algorithm).check()
        print(f"{label:>9}: clique bound {clique_block_bound(inst):>6}  "
              f"{args.algorithm} maxcolor {coloring.maxcolor:>6}")
    return 0


def cmd_gantt(args: argparse.Namespace) -> int:
    from repro.core.algorithms.registry import color_with
    from repro.stkde.gantt import gantt_svg
    from repro.stkde.runtime import simulate_schedule

    weights = _load_weights(args.file)
    instance = _grid_instance(weights, args.file)
    if instance is None:
        return 2
    coloring = color_with(instance, args.algorithm).check()
    trace = simulate_schedule(coloring, num_workers=args.workers)
    svg = gantt_svg(
        coloring,
        trace,
        title=f"{args.algorithm} on {weights.shape}, P={args.workers}",
    )
    with open(args.output, "w") as handle:
        handle.write(svg)
    print(f"maxcolor {coloring.maxcolor}, makespan {trace.makespan:.1f}, "
          f"critical path {trace.critical_path:.1f}")
    print(f"gantt chart saved to {args.output}")
    return 0


def _parse_shape(text: str) -> tuple[int, ...]:
    """``"512x512"`` / ``"64x64x64"`` -> a 2- or 3-tuple of positive ints."""
    try:
        dims = tuple(int(part) for part in text.lower().split("x") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a NxN[xN] shape: {text!r}")
    if len(dims) not in (2, 3) or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(
            f"shape must be 2 or 3 positive dims, got {text!r}")
    return dims


def cmd_tile(args: argparse.Namespace) -> int:
    import json
    import resource
    from time import perf_counter

    from repro.data import MemmapWeightSource, SyntheticWeightSource
    from repro.runtime.config import TilingConfig
    from repro.tiling import TilingError, color_tiled

    if bool(args.input) == bool(args.shape):
        print("error: give exactly one of --input FILE.npy or --shape NxN[xN]",
              file=sys.stderr)
        return 2
    if args.input:
        source = MemmapWeightSource(args.input)
    else:
        source = SyntheticWeightSource(
            args.shape, seed=args.seed, high=args.max_weight + 1)

    tiling = TilingConfig(
        mode="on",
        tile_shape=tuple(args.tile) if args.tile else None,
        memory_budget_mb=args.budget_mb,
    )
    # Assembling the full starts array costs 8 bytes/cell of resident
    # memory; skip it unless the caller asked for an artifact (--out) or a
    # comparison (--verify).  The digest still covers every tile.
    assemble = bool(args.verify) or bool(args.out)
    t0 = perf_counter()
    try:
        tiled = color_tiled(
            source,
            tiling=tiling,
            out=args.out or None,
            assemble=assemble,
            log_path=args.log or None,
            resume_from=(args.log or None) if args.resume else None,
        )
    except TilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = perf_counter() - t0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = {
        "shape": list(source.shape),
        "tile_shape": list(tiled.plan.tile_shape),
        "tiles": len(tiled.plan.tiles),
        "maxcolor": tiled.maxcolor,
        "digest": tiled.digest,
        "seam_bands": tiled.seam_bands,
        "seam_cells": tiled.seam_cells,
        "band_seconds": tiled.seam_elapsed,
        "total_seconds": elapsed,
        "resumed_tiles": tiled.resumed_tiles,
        "peak_rss_mb": round(peak_rss_mb, 1),
    }
    if args.out:
        summary["out"] = args.out

    if args.verify:
        from repro.core.algorithms.registry import color_with
        from repro.core.problem import IVCInstance

        full_box = tuple((0, d) for d in source.shape)
        weights = source.region(full_box)
        mono = color_with(IVCInstance.from_grid(weights, name="tile-verify"), "GLL")
        identical = bool(
            np.array_equal(np.asarray(tiled.starts).ravel(),
                           np.asarray(mono.starts).ravel())
            and tiled.maxcolor == mono.maxcolor
        )
        summary["verify"] = {"identical": identical, "maxcolor": mono.maxcolor}

    print(json.dumps(summary, indent=2))
    if args.verify and not summary["verify"]["identical"]:
        print("error: tiled coloring diverged from the monolithic kernel",
              file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime.context import get_context
    from repro.service.frames import WIRE_PROTOCOLS
    from repro.service.server import ServerConfig, run_service

    wire = ", ".join(WIRE_PROTOCOLS)
    if args.version:
        print(f"stencil-ivc service wire protocols: {wire}")
        return 0

    workers = args.workers
    if workers is None:
        workers = get_context().config.service_workers

    config = ServerConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        cache_size=args.cache_size,
        spill_dir=args.spill_dir or None,
        default_timeout=args.default_timeout,
    )

    if workers > 1:
        from repro.service.router import ColoringRouter, RouterConfig, run_router

        router_config = RouterConfig(
            host=args.host,
            port=args.port,
            workers=workers,
            spill_dir=args.spill_dir or None,
            worker_config=config,
        )

        def announce_router(router: ColoringRouter) -> None:
            print(
                f"coloring router on {router_config.host}:{router.port} "
                f"({workers} workers, wire: {wire}, "
                f"shared L2: {router.pool.spill_dir})",
                flush=True,
            )

        try:
            asyncio.run(run_router(router_config, ready=announce_router))
        except KeyboardInterrupt:
            print("interrupted — shutting down")
        return 0

    def announce(service) -> None:
        print(
            f"coloring service on {config.host}:{service.port} "
            f"(queue_limit={config.queue_limit}, cache={config.cache_size}, "
            f"wire: {wire}"
            f"{', spill=' + config.spill_dir if config.spill_dir else ''})",
            flush=True,
        )

    try:
        asyncio.run(run_service(config, ready=announce))
    except KeyboardInterrupt:
        print("interrupted — shutting down")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from repro.resilience import RetryPolicy, install_plan, parse_fault_spec
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.loadgen import (
        build_workload,
        format_report,
        parse_shapes,
        run_loadgen,
    )

    try:
        shapes = parse_shapes(args.shapes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.faults:
        try:
            plan = parse_fault_spec(args.faults)
        except ValueError as exc:
            print(f"error: bad --faults spec: {exc}", file=sys.stderr)
            return 2
        install_plan(plan)
        print(f"chaos: installed fault plan (seed {plan.seed}, "
              f"{len(plan.points)} fault points)")
    retry = (
        RetryPolicy(retries=args.connect_retries)
        if args.connect_retries > 0
        else None
    )

    spawned = None
    host, port = args.host, args.port
    if args.spawn:
        from repro.service.server import ServerConfig, ServerThread

        spawned = ServerThread(
            ServerConfig(
                host="127.0.0.1",
                port=0,
                cache_size=args.spawn_cache_size,
                spill_dir=args.spawn_spill_dir or None,
            )
        ).start()
        host, port = "127.0.0.1", spawned.port
        print(f"spawned in-process service on {host}:{port}")
    elif args.wait_ready > 0:
        deadline = _time.monotonic() + args.wait_ready
        while True:
            try:
                with ServiceClient(host, port, timeout=2.0) as probe:
                    probe.ping()
                break
            except (OSError, ServiceError):
                if _time.monotonic() >= deadline:
                    print(
                        f"error: no service at {host}:{port} after "
                        f"{args.wait_ready:.0f}s",
                        file=sys.stderr,
                    )
                    return 1
                _time.sleep(0.2)

    try:
        if args.recolor > 0:
            from repro.service.loadgen import (
                format_recolor_report,
                run_recolor_stream,
            )

            stream = run_recolor_stream(
                host,
                port,
                shape=shapes[0],
                algorithm=args.algorithm,
                sessions=args.recolor_sessions,
                deltas=args.recolor,
                delta_cells=args.recolor_cells,
                max_weight=args.max_weight,
                seed=args.seed,
                verify=args.verify,
                retry=retry,
            )
            print(format_recolor_report(stream))
            if args.json:
                payload = json.dumps(
                    stream.to_json(), indent=2, sort_keys=True
                )
                if args.json == "-":
                    print(payload)
                else:
                    with open(args.json, "w", encoding="utf-8") as fh:
                        fh.write(payload + "\n")
            if args.shutdown_after:
                with ServiceClient(host, port) as client:
                    client.shutdown()
                print("sent shutdown to server")
            failed = stream.errors > 0 or stream.divergences > 0
            if stream.divergences > 0:
                print(
                    "error: streamed colorings diverged from cold recolor",
                    file=sys.stderr,
                )
            if stream.errors > 0:
                print(
                    f"error: {stream.errors} recolor requests failed",
                    file=sys.stderr,
                )
            return 1 if failed else 0
        workload = build_workload(
            shapes,
            distinct=args.distinct,
            algorithm=args.algorithm,
            max_weight=args.max_weight,
            seed=args.seed,
        )
        report = run_loadgen(
            host,
            port,
            workload,
            requests=args.requests,
            concurrency=args.concurrency,
            verify=args.verify,
            request_timeout=args.request_timeout or None,
            seed=args.seed,
            retry=retry,
            zipf=args.zipf,
            pipeline=args.pipeline,
        )
        print(format_report(report))
        if args.json:
            payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
            if args.json == "-":
                print(payload)
            else:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(payload + "\n")
        if args.shutdown_after:
            with ServiceClient(host, port) as client:
                client.shutdown()
            print("sent shutdown to server")
    finally:
        if spawned is not None:
            spawned.stop()

    failed = report.divergences > 0 or report.errors > 0
    if args.p99_budget_ms > 0 and report.latency_p99_ms > args.p99_budget_ms:
        print(
            f"error: p99 {report.latency_p99_ms:.1f} ms exceeds the "
            f"{args.p99_budget_ms:.1f} ms budget",
            file=sys.stderr,
        )
        failed = True
    if report.divergences > 0:
        print("error: served colorings diverged from direct color_with",
              file=sys.stderr)
    if report.errors > 0:
        print(f"error: {report.errors} requests failed", file=sys.stderr)
    if report.connection_failures > 0:
        print(
            f"error: {report.connection_failures} requests lost to dead "
            "connections (retry budget exhausted)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def cmd_recolor(args: argparse.Namespace) -> int:
    import json
    from time import perf_counter

    from repro import api
    from repro.incremental.engine import RecolorValidationError, full_recolor

    rng = np.random.default_rng(args.seed)
    weights = rng.integers(
        1, args.max_weight + 1, size=args.shape, dtype=np.int64
    )
    n = weights.size

    t0 = perf_counter()
    base = api.color(weights, algorithm=args.algorithm)
    seed_seconds = perf_counter() - t0

    cells = max(1, min(args.cells, n))
    incremental = fallbacks = 0
    cone_cells = changed_cells = 0
    recolor_seconds = full_seconds = 0.0
    fallback_reasons: dict[str, int] = {}
    result = base
    current = weights
    for _ in range(args.deltas):
        idx = rng.choice(n, size=cells, replace=False)
        new_weights = current.copy()
        new_weights.ravel()[idx] = rng.integers(
            1, args.max_weight + 1, size=cells, dtype=np.int64
        )
        t0 = perf_counter()
        try:
            result = api.recolor(
                new_weights,
                result,
                base_weights=current,
                algorithm=args.algorithm,
                validate=args.validate or None,
            )
        except RecolorValidationError as exc:
            print(f"error: incremental validation failed: {exc}",
                  file=sys.stderr)
            return 1
        recolor_seconds += perf_counter() - t0
        stats = result.provenance["recolor"]
        if result.mode == "incremental":
            incremental += 1
        else:
            fallbacks += 1
            reason = stats.get("fallback_reason") or "unknown"
            fallback_reasons[reason] = fallback_reasons.get(reason, 0) + 1
        cone_cells += stats["cells_recomputed"]
        changed_cells += stats["cells_changed"]
        current = new_weights

    t0 = perf_counter()
    cold = full_recolor(current, args.algorithm)
    full_seconds = perf_counter() - t0
    identical = bool(np.array_equal(result.starts, cold))

    per_delta = recolor_seconds / max(1, args.deltas)
    summary = {
        "shape": list(args.shape),
        "algorithm": args.algorithm,
        "deltas": args.deltas,
        "cells_per_delta": cells,
        "incremental": incremental,
        "fallbacks": fallbacks,
        "fallback_reasons": fallback_reasons,
        "cone_cells_total": int(cone_cells),
        "cells_changed_total": int(changed_cells),
        "maxcolor": result.maxcolor,
        "seed_seconds": round(seed_seconds, 6),
        "recolor_seconds_per_delta": round(per_delta, 6),
        "full_recolor_seconds": round(full_seconds, 6),
        "speedup_vs_full": round(full_seconds / per_delta, 2)
        if per_delta > 0
        else None,
        "matches_full_recolor": identical,
        "validated": bool(args.validate),
    }
    print(json.dumps(summary, indent=2))
    if not identical:
        print("error: final streamed coloring diverged from a cold recolor",
              file=sys.stderr)
        return 1
    return 0


def cmd_sessions(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.service.durability import SessionDurability

    root = Path(args.spill_dir) / "sessions"
    if args.action in ("inspect", "compact") and not args.session:
        print(f"error: 'sessions {args.action}' needs a SESSION id",
              file=sys.stderr)
        return 2
    if not root.is_dir():
        if args.action == "list":
            print(json.dumps([]) if args.json
                  else f"no durable sessions under {root}")
            return 0
        print(f"error: no session directory at {root}", file=sys.stderr)
        return 1
    store = SessionDurability(root)

    if args.action == "list":
        summaries = store.list_sessions()
        if args.json:
            print(json.dumps(summaries, indent=2))
            return 0
        if not summaries:
            print(f"no durable sessions under {root}")
            return 0
        for s in summaries:
            name = s.get("session") or f"<{s['stem'][:12]}…>"
            ck = (f"checkpoint seq {s['checkpoint_seq']}"
                  if s.get("checkpoint_verified")
                  else "checkpoint DAMAGED"
                  if "checkpoint_verified" in s
                  else "no checkpoint")
            parts = [
                f"{name}:",
                f"{s.get('journal_deltas', 0)} journal deltas "
                f"({s.get('journal_bytes', 0)} B",
                f"{s.get('journal_skipped', 0)} torn),",
                ck,
            ]
            if s.get("algorithm"):
                shape = "x".join(str(d) for d in s.get("shape") or [])
                parts.append(f"[{s['algorithm']} {shape}]")
            print(" ".join(parts))
        return 0

    if args.action == "inspect":
        detail = store.inspect(args.session)
        print(json.dumps(detail, indent=2))
        return 0 if detail["recoverable"] else 1

    summary = store.compact(args.session)
    if summary is None:
        print(f"error: session {args.session!r} is not recoverable "
              f"(no usable checkpoint or seed record)", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2))
    return 0 if summary["compacted"] else 1


def cmd_npc(args: argparse.Namespace) -> int:
    from repro.npc.decision import decide_stencil_coloring
    from repro.npc.nae3sat import random_nae3sat, unsatisfiable_example
    from repro.npc.reduction import assignment_from_coloring, build_reduction

    if args.fano:
        formula = unsatisfiable_example()
    else:
        formula = random_nae3sat(args.vars, args.clauses, seed=args.seed)
    print(f"formula: {formula.num_vars} vars, clauses {formula.clauses}")
    sat = formula.is_satisfiable()
    print(f"NAE-satisfiable (brute force): {sat}")
    reduction = build_reduction(formula)
    shape = reduction.instance.geometry.shape
    print(f"reduced 3DS-IVC grid: {shape[0]}x{shape[1]}x{shape[2]}, K={reduction.k}")
    coloring = decide_stencil_coloring(reduction.instance, reduction.k, method="milp")
    print(f"colorable with {reduction.k} colors: {coloring is not None}")
    if (coloring is not None) != sat:
        print("MISMATCH — the reduction is broken")
        return 1
    if coloring is not None:
        assignment = assignment_from_coloring(reduction, coloring)
        print(f"extracted assignment: {assignment}")
        print(f"satisfies formula: {formula.is_satisfied(assignment)}")
    return 0


def cmd_campaign_plan(args: argparse.Namespace) -> int:
    from repro.campaign import compile_plan, load_spec

    spec = load_spec(args.spec)
    plan = compile_plan(spec)
    print(f"campaign:          {spec.name}")
    if spec.description:
        print(f"description:       {spec.description}")
    print(f"scenario:          {spec.scenario.get('kind')}")
    print(f"spec fingerprint:  {spec.fingerprint()}")
    print(f"plan fingerprint:  {plan.fingerprint()}")
    print(f"variants:          {len(plan.variants)}")
    print(f"instances:         {len(plan.instances)}")
    print(f"algorithms:        {', '.join(plan.algorithms)}")
    print(f"cells:             {plan.num_cells}")
    print(f"reports:           {', '.join(r.title for r in spec.reports) or '(none)'}")
    if args.verbose:
        for inst in plan.instances:
            print(f"  {inst.name}  ({inst.num_vertices} vertices)")
    return 0


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import load_spec, run_campaign

    spec = load_spec(args.spec)
    context = None
    if args.faults:
        from repro.runtime.context import ExecutionContext, get_context

        context = ExecutionContext(
            get_context().config.with_overrides(fault_spec=args.faults)
        )
    result = run_campaign(
        spec,
        out_dir=args.out_dir or None,
        jobs=args.jobs if args.jobs else None,
        resume=args.resume,
        cell_timeout=args.cell_timeout,
        max_cell_retries=args.retries,
        root=args.out or None,
        context=context,
    )
    session = result.session
    print(f"campaign {spec.name}: {len(result.records)} cells -> {result.out_dir}")
    print(
        f"  executed {session['cells_executed']}, "
        f"resumed {session['cells_resumed']}, "
        f"retried {session['cells_retried']}, "
        f"pool restarts {session['pool_restarts']} "
        f"({session['elapsed']:.2f}s, jobs={session['jobs']})"
    )
    failures = sum(1 for r in result.records if not r.ok)
    if failures:
        print(f"  {failures} cell(s) failed — rerun with --resume to retry them")
        return 1
    return 0


def cmd_campaign_harvest(args: argparse.Namespace) -> int:
    from repro.campaign import harvest_campaign, harvest_digest

    harvest = harvest_campaign(args.dir)
    print(f"harvested {harvest['campaign']}: {len(harvest['records'])} records, "
          f"{harvest['sessions']} session(s), {harvest['failures']} failure(s)")
    print(f"  plan fingerprint: {harvest['plan_fingerprint']}")
    print(f"  harvest digest:   {harvest_digest(harvest)}")
    print(f"  -> {args.dir}/harvest.json")
    return 1 if harvest["failures"] else 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.campaign import load_harvest, load_spec, render_reports, write_reports

    harvest = load_harvest(args.dir)
    reports = None
    if args.spec:
        reports = load_spec(args.spec).reports
    docs = render_reports(harvest, reports)
    if not docs:
        print("no [[report]] entries to render (pass --spec with some)")
        return 1
    formats = (
        ("txt", "svg", "md", "html", "json")
        if args.format == "all"
        else tuple(f.strip() for f in args.format.split(","))
    )
    out_dir = Path(args.report_dir) if args.report_dir else Path(args.dir) / "reports"
    written = write_reports(docs, out_dir, formats, campaign=harvest["campaign"])
    for path in written:
        print(f"wrote {path}")
    return 0


def _add_jobs_option(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes for the batch engine; 0 (default) uses all "
             "cores, 1 runs serially through the same code path",
    )


def _add_run_log_option(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--run-log", default="", metavar="PATH",
        help="append one JSONL RunRecord per (instance, algorithm) cell to "
             "PATH as the run progresses",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="stencil-ivc",
        description="Interval vertex coloring of 9-pt and 27-pt stencils (IPPS 2022 reproduction)",
        epilog="Run 'stencil-ivc <subcommand> --help' for a brief summary of "
               "any subcommand's options.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "algorithms",
        help="list the registered coloring heuristics",
        description="List every registered coloring heuristic with its "
                    "capabilities: supported stencil dimensions, whether it "
                    "needs a stencil geometry or accepts arbitrary conflict "
                    "graphs, and paper-vs-extension provenance.",
        epilog="Example: stencil-ivc algorithms --paper-only",
        allow_abbrev=False,
    )
    p.add_argument("--paper-only", action="store_true",
                   help="show only the paper's seven Section V heuristics")
    p.set_defaults(func=cmd_algorithms)

    p = sub.add_parser(
        "solve", help="color a weight grid from a file", allow_abbrev=False
    )
    p.add_argument("file", help=".npy or whitespace text file of weights")
    p.add_argument("--algorithm", default="BDP")
    p.add_argument("--output", default="", help="save start colors to .npy")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "bounds",
        help="print the Section III lower bounds for a grid",
        allow_abbrev=False,
    )
    p.add_argument("file", help=".npy or whitespace text file of weights")
    p.add_argument("--odd-cycles", action="store_true",
                   help="include the (exponential) odd-cycle bound search")
    p.add_argument("--max-cycle-len", type=int, default=5)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "exact", help="solve a grid to optimality with the MILP", allow_abbrev=False
    )
    p.add_argument("file", help=".npy or whitespace text file of weights")
    p.add_argument("--time-limit", type=float, default=60.0)
    p.add_argument("--output", default="", help="save optimal starts to .npy")
    p.set_defaults(func=cmd_exact)

    for name, func in (("suite", cmd_suite), ("optimal", cmd_optimal)):
        p = sub.add_parser(
            name,
            help=f"run the Section VI {name} experiment",
            description=f"Run the Section VI {name} experiment over the "
                        "synthetic dataset suite, fanning the (instance x "
                        "algorithm) grid across --jobs worker processes.",
            epilog=f"Example: stencil-ivc {name} --dim 2 --jobs 4",
            allow_abbrev=False,
        )
        p.add_argument("--dim", type=int, choices=(2, 3), default=2)
        p.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier")
        p.add_argument("--dim-cap", type=int, default=16)
        p.add_argument("--max-cells", type=int, default=2048)
        _add_jobs_option(p)
        if name == "suite":
            p.add_argument("--data-dir", default="",
                           help="directory of x,y,t CSVs to use instead of the synthetic datasets")
            p.add_argument(
                "--runtime", choices=("auto", "kernels", "reference"),
                default=None,
                help="which implementation colors the cells: 'kernels' "
                     "forces the vectorized fast paths, 'reference' the "
                     "Python loops, 'auto' (default) follows the runtime "
                     "config (kernels unless REPRO_FAST_PATHS=0)",
            )
            _add_run_log_option(p)
            p.add_argument(
                "--resume", action="store_true",
                help="resume from an existing --run-log: completed cells are "
                     "adopted, only missing/error cells re-run",
            )
            p.add_argument(
                "--retries", type=int, default=3, metavar="N",
                help="extra attempts per cell after a worker crash (the pool "
                     "is rebuilt and only lost cells resubmitted; default 3)",
            )
        if name == "optimal":
            p.add_argument("--time-limit", type=float, default=5.0)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "partition",
        help="compare uniform vs load-balanced rectilinear decomposition on a CSV",
        allow_abbrev=False,
    )
    p.add_argument("file", help="CSV of events with x,y,t columns")
    p.add_argument("--parts-x", type=int, default=8)
    p.add_argument("--parts-y", type=int, default=8)
    p.add_argument("--bandwidth-x", type=float, required=True)
    p.add_argument("--bandwidth-y", type=float, required=True)
    p.add_argument("--algorithm", default="BDP")
    p.add_argument("--x-column", default="x")
    p.add_argument("--y-column", default="y")
    p.add_argument("--t-column", default="t")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser(
        "gantt",
        help="render a simulated schedule as an SVG Gantt chart",
        allow_abbrev=False,
    )
    p.add_argument("file", help=".npy or whitespace text file of weights")
    p.add_argument("--algorithm", default="GLF")
    p.add_argument("--workers", type=int, default=6)
    p.add_argument("--output", default="schedule.svg")
    p.set_defaults(func=cmd_gantt)

    p = sub.add_parser(
        "stkde",
        help="STKDE integration experiment (Section VII)",
        description="Color each dataset's box-decomposition instance with "
                    "every paper heuristic (through the batch engine) and "
                    "simulate the resulting parallel STKDE schedule.",
        epilog="Example: stencil-ivc stkde --scale 0.5 --workers 6 --jobs 2",
        allow_abbrev=False,
    )
    p.add_argument("--workers", type=int, default=6,
                   help="simulated schedule worker count (not engine jobs)")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--bandwidth-divisor", type=float, default=24.0)
    _add_jobs_option(p)
    _add_run_log_option(p)
    p.set_defaults(func=cmd_stkde)

    p = sub.add_parser(
        "tile",
        help="color a large grid out-of-core through the tiler",
        description="Color a weight grid in one streaming pass over "
                    "outer-axis bands of tiles, digesting every tile, and "
                    "print a JSON summary (maxcolor, combined digest, "
                    "timings, peak RSS).  The result is bit-identical to "
                    "the monolithic GLL kernel.",
        epilog="Example: stencil-ivc tile --shape 4096x4096 --tile 1024x1024 "
               "--log tiles.jsonl",
        allow_abbrev=False,
    )
    p.add_argument("--input", default="",
                   help=".npy weight grid, read through a memory map")
    p.add_argument("--shape", type=_parse_shape, default=None, metavar="NxN[xN]",
                   help="synthetic grid dimensions (instead of --input)")
    p.add_argument("--seed", type=int, default=0,
                   help="synthetic weight seed (with --shape)")
    p.add_argument("--max-weight", type=int, default=100,
                   help="synthetic weight upper bound (with --shape)")
    p.add_argument("--tile", type=_parse_shape, default=None, metavar="NxN[xN]",
                   help="per-axis tile dimensions (default: derived from the "
                        "tiling config / --budget-mb)")
    p.add_argument("--budget-mb", type=int, default=0, metavar="MB",
                   help="soft working-set cap used to derive the tile shape "
                        "when --tile is not given (0 = unbudgeted)")
    p.add_argument("--out", default="",
                   help="write the assembled starts grid to this .npy file "
                        "(streamed per band through a memory map)")
    p.add_argument("--log", default="", metavar="PATH",
                   help="write one JSONL record per finished tile to PATH, "
                        "and each finished band's carry to PATH.carry.npy")
    p.add_argument("--resume", action="store_true",
                   help="adopt the completed bands of an existing --log and "
                        "color only the bands after them")
    p.add_argument("--verify", action="store_true",
                   help="also run the monolithic GLL kernel and fail unless "
                        "the colorings are identical (loads the full grid)")
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser(
        "serve",
        help="run the online coloring service",
        description="Serve coloring requests over TCP in binary frames "
                    "(see docs/service.md): cache misses are computed one "
                    "at a time in arrival order, identical requests share "
                    "one computation, results are cached by content hash, "
                    "and the queue is bounded "
                    "(requests beyond --queue-limit get an immediate "
                    "'overloaded' response).",
        epilog="Example: stencil-ivc serve --port 8765 --cache-size 1024 "
               "--spill-dir /tmp/ivc-l2",
        allow_abbrev=False,
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 picks an ephemeral port; default 8765)")
    p.add_argument("--queue-limit", type=int, default=256,
                   help="admission cap; beyond it requests are rejected")
    p.add_argument("--cache-size", type=int, default=512,
                   help="result-cache entries (0 disables caching)")
    p.add_argument("--default-timeout", type=float, default=30.0,
                   help="per-request deadline cap in seconds")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker processes; >= 2 runs a content-key router in "
                        "front of N supervised server processes sharing one "
                        "L2 spill directory (default REPRO_SERVICE_WORKERS "
                        "or 1)")
    p.add_argument("--spill-dir", default="",
                   help="the cache's disk tier (one JSON file per cached "
                        "result, indexed on startup) and the recolor session "
                        "journals; without it one worker keeps both in "
                        "memory and each --workers run gets a temp dir")
    p.add_argument("--version", action="store_true",
                   help="print the supported wire protocol versions and exit")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive the coloring service with a repeated-shape workload",
        description="Generate a pool of --distinct weight grids over "
                    "--shapes, fire --requests sampled requests over "
                    "--concurrency connections, and report throughput, "
                    "latency percentiles, and cache hit rate.  --verify "
                    "checks every served coloring bit-for-bit against a "
                    "direct color_with call; exits nonzero on divergence, "
                    "failed requests, or a blown --p99-budget-ms.",
        epilog="Example: stencil-ivc loadgen --port 8765 --requests 500 "
               "--concurrency 8 --verify",
        allow_abbrev=False,
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--spawn", action="store_true",
                   help="spawn an in-process server instead of connecting")
    p.add_argument("--wait-ready", type=float, default=0.0, metavar="SECONDS",
                   help="poll the server with pings for up to SECONDS before "
                        "starting (for freshly launched servers)")
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--concurrency", type=int, default=8)
    p.add_argument("--shapes", default="32x32,48x48",
                   help="comma-separated grid shapes, e.g. 32x32,16x16x8")
    p.add_argument("--distinct", type=int, default=8,
                   help="distinct weight grids in the workload pool")
    p.add_argument("--algorithm", default="BDP")
    p.add_argument("--max-weight", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="compare every served coloring against direct color_with")
    p.add_argument("--request-timeout", type=float, default=0.0,
                   help="per-request deadline in seconds (0 = server default)")
    p.add_argument("--p99-budget-ms", type=float, default=0.0,
                   help="fail (exit 1) if p99 latency exceeds this budget")
    p.add_argument("--shutdown-after", action="store_true",
                   help="send the server a shutdown op when done")
    p.add_argument("--faults", default="", metavar="SPEC",
                   help="install a seeded fault plan for chaos runs, e.g. "
                        "'seed=11;client.send:drop=0.05;service.compute:error=0.02'")
    p.add_argument("--connect-retries", type=int, default=0, metavar="N",
                   help="retry budget per request for dropped connections "
                        "(0 = brittle connections, the default)")
    p.add_argument("--spawn-cache-size", type=int, default=512,
                   help="result-cache entries for the --spawn server")
    p.add_argument("--spawn-spill-dir", default="", metavar="DIR",
                   help="spill directory for the --spawn server's cache")
    p.add_argument("--zipf", type=float, default=0.0, metavar="S",
                   help="zipf exponent skewing the request schedule toward "
                        "popular pool items (0 = uniform, the default)")
    p.add_argument("--pipeline", type=int, default=1, metavar="K",
                   help="requests in flight per connection before the first "
                        "read (wrk-style capacity measurement; default 1)")
    p.add_argument("--recolor", type=int, default=0, metavar="DELTAS",
                   help="delta-stream mode: seed --recolor-sessions grids, "
                        "stream DELTAS sparse weight deltas through the "
                        "recolor verb, verify the final colorings (replaces "
                        "the color workload)")
    p.add_argument("--recolor-sessions", type=int, default=2, metavar="N",
                   help="live sessions for --recolor mode (default 2)")
    p.add_argument("--recolor-cells", type=int, default=4, metavar="K",
                   help="cells rewritten per delta in --recolor mode")
    p.add_argument("--json", default="", metavar="PATH",
                   help="also write the report as JSON to PATH ('-' = stdout)")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "recolor",
        help="offline incremental-recoloring demo over a delta stream",
        epilog="Example: stencil-ivc recolor --shape 512x512 --algorithm GLF "
               "--deltas 16 --cells 8 --validate",
        allow_abbrev=False,
    )
    p.add_argument("--shape", type=_parse_shape, default=(256, 256),
                   metavar="NxN[xN]", help="synthetic grid shape")
    p.add_argument("--algorithm", default="GLF",
                   help="coloring heuristic (default GLF; GLL/GZO also have "
                        "incremental support, others fall back)")
    p.add_argument("--deltas", type=int, default=16,
                   help="sparse weight deltas to stream (default 16)")
    p.add_argument("--cells", type=int, default=4,
                   help="cells rewritten per delta (default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="synthetic weight/delta seed")
    p.add_argument("--max-weight", type=int, default=100,
                   help="weights drawn uniformly from [1, MAX_WEIGHT]")
    p.add_argument("--validate", action="store_true",
                   help="diff every incremental result against a full "
                        "recolor (slow; exits 1 on any mismatch)")
    p.set_defaults(func=cmd_recolor)

    p = sub.add_parser(
        "sessions",
        help="inspect or compact durable recolor-session journals offline",
        epilog="Examples: stencil-ivc sessions list --spill-dir /tmp/l2 | "
               "stencil-ivc sessions inspect my-session --spill-dir /tmp/l2 "
               "| stencil-ivc sessions compact my-session --spill-dir /tmp/l2",
        allow_abbrev=False,
    )
    p.add_argument("action", choices=("list", "inspect", "compact"),
                   help="list every durable session, inspect one session's "
                        "journal/checkpoint, or compact its journal into a "
                        "verified checkpoint")
    p.add_argument("session", nargs="?", default="",
                   help="session id (required for inspect/compact)")
    p.add_argument("--spill-dir", required=True,
                   help="the serve --spill-dir whose sessions/ subdirectory "
                        "holds the journals")
    p.add_argument("--json", action="store_true",
                   help="machine-readable list output")
    p.set_defaults(func=cmd_sessions)

    p = sub.add_parser(
        "campaign",
        help="declarative experiment campaigns: plan, run, harvest, report",
        description="Declarative experiment campaigns (campaigns/*.toml): "
                    "compile a TOML spec into a deterministic "
                    "(instance × algorithm) plan, execute it through the "
                    "crash-supervised engine into a resumable artifact dir, "
                    "fold the run logs into one versioned harvest.json, and "
                    "render the paper's figure tables from it.",
        epilog="Example: stencil-ivc campaign run campaigns/smoke.toml && "
               "stencil-ivc campaign harvest out/campaigns/smoke && "
               "stencil-ivc campaign report out/campaigns/smoke",
        allow_abbrev=False,
    )
    campaign_sub = p.add_subparsers(dest="verb", required=True)

    cp = campaign_sub.add_parser(
        "plan", help="compile a spec and print the plan (nothing runs)",
        allow_abbrev=False,
    )
    cp.add_argument("spec", help="campaign spec (TOML)")
    cp.add_argument("--verbose", action="store_true", help="list every instance")
    cp.set_defaults(func=cmd_campaign_plan)

    cp = campaign_sub.add_parser(
        "run", help="execute a campaign spec into an artifact dir",
        allow_abbrev=False,
    )
    cp.add_argument("spec", help="campaign spec (TOML)")
    cp.add_argument(
        "--out", default="", metavar="DIR",
        help="artifact root (default: $REPRO_OUT_DIR or ./out); the campaign "
             "lands in <root>/campaigns/<name>",
    )
    cp.add_argument(
        "--out-dir", default="", metavar="DIR",
        help="exact artifact directory (overrides --out)",
    )
    cp.add_argument(
        "--resume", action="store_true",
        help="adopt completed cells from the dir's existing runs.jsonl; "
             "only missing/errored cells execute",
    )
    _add_jobs_option(cp)
    cp.add_argument(
        "--cell-timeout", type=float, default=None, metavar="S",
        help="per-cell wall-clock limit in seconds (beats run.cell_timeout)",
    )
    cp.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts per cell after a worker crash (beats the "
             "runtime config)",
    )
    cp.add_argument(
        "--faults", default="", metavar="SPEC",
        help="fault-injection spec for this run, e.g. "
             "'seed=11;engine.cell:crash=0.05' (beats REPRO_FAULTS)",
    )
    cp.set_defaults(func=cmd_campaign_run)

    cp = campaign_sub.add_parser(
        "harvest", help="fold an artifact dir's run logs into harvest.json",
        allow_abbrev=False,
    )
    cp.add_argument("dir", help="campaign artifact directory")
    cp.set_defaults(func=cmd_campaign_harvest)

    cp = campaign_sub.add_parser(
        "report", help="render figure tables from a harvested artifact",
        allow_abbrev=False,
    )
    cp.add_argument("dir", help="campaign artifact directory (harvested)")
    cp.add_argument(
        "--spec", default="", metavar="SPEC",
        help="render this spec's [[report]] entries instead of the ones "
             "embedded in the harvest (the spec must share the harvest's "
             "plan)",
    )
    cp.add_argument(
        "--format", default="all", metavar="LIST",
        help="comma-separated subset of txt,svg,md,html,json (default: all)",
    )
    cp.add_argument(
        "--report-dir", default="", metavar="DIR",
        help="where to write rendered reports (default: <dir>/reports)",
    )
    cp.set_defaults(func=cmd_campaign_report)

    p = sub.add_parser(
        "npc", help="NAE-3SAT reduction demo (Section IV)", allow_abbrev=False
    )
    p.add_argument("--vars", type=int, default=4)
    p.add_argument("--clauses", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fano", action="store_true", help="use the unsatisfiable Fano formula")
    p.set_defaults(func=cmd_npc)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``stencil-ivc`` console script.

    Constructs a single :class:`~repro.runtime.context.ExecutionContext`
    (environment-derived config, fault plan installed) and runs the chosen
    subcommand under it, so all four call paths a command may touch —
    direct dispatch, kernels, engine workers, the service — share one
    runtime configuration per invocation.
    """
    from repro.campaign.errors import CampaignError
    from repro.core.algorithms.registry import UnknownAlgorithmError
    from repro.runtime.context import ExecutionContext, use_context

    args = build_parser().parse_args(argv)
    context = ExecutionContext.from_env()
    context.install_faults()
    try:
        with use_context(context):
            return args.func(args)
    except (UnknownAlgorithmError, CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
