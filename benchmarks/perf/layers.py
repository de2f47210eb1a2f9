"""The program's layers as the traced run sees them, and their metrics.

:func:`install` wraps each layer's public functions (the list
:func:`_targets` builds) with a :class:`~benchmarks.perf.trace.Tracer`;
:func:`layer_metrics` turns the recorded spans, plus counts the workloads
read off return values and the service's ``metrics`` op, into the
``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Iterable

from benchmarks.perf.trace import Span, Target, Tracer, self_times

#: Imported before installing, so every ``from x import f`` binding that
#: a wrapper must replace already exists.
_MODULES = (
    "repro",
    "repro.api",
    "repro.core.algorithms.greedy",
    "repro.core.algorithms.post_opt",
    "repro.kernels",
    "repro.kernels.chains",
    "repro.kernels.colorings",
    "repro.kernels.halo",
    "repro.incremental",
    "repro.tiling",
    "repro.service",
    "repro.service.durability",
)


def _schedule(args, kwargs, result) -> dict:
    _verts, ptr = result
    return {"batches": len(ptr) - 1, "cells": int(ptr[-1])}


def _region(args, kwargs, result) -> dict:
    return {"cells": int(result.size)}


def _cone(args, kwargs, result) -> dict:
    return {"aborted": result is None}


def _targets() -> list[Target]:
    orderings = importlib.import_module("repro.core.orderings")
    frames = importlib.import_module("repro.service.frames")

    def defined_in(module, keep) -> list[str]:
        return sorted(
            name
            for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and keep(name)
        )

    return [
        Target("repro.api", "color", "api"),
        Target("repro.core.problem", "IVCInstance.from_grid_2d", "substrate"),
        Target("repro.core.problem", "IVCInstance.from_grid_3d", "substrate"),
        Target("repro.kernels.substrate", "shared_geometry_2d", "substrate"),
        Target("repro.kernels.substrate", "shared_geometry_3d", "substrate"),
        Target("repro.kernels.substrate", "get_substrate", "substrate"),
        Target("repro.kernels.substrate", "Substrate.wavefront_for", "substrate", _schedule),
        Target("repro.kernels.wavefront", "wavefront_greedy_color", "wavefront"),
        Target("repro.kernels.wavefront", "wavefront_recolor_pass", "wavefront"),
        *(
            Target("repro.core.orderings", name, "orderings")
            for name in defined_in(orderings, lambda n: n.endswith("_order"))
        ),
        Target("repro.kernels.chains", "bd_starts_2d", "chains"),
        Target("repro.kernels.chains", "bd_starts_3d", "chains"),
        Target("repro.kernels.chains", "bdp_recolor_order_fast", "chains"),
        Target("repro.kernels.halo", "color_region", "halo", _region),
        Target("repro.tiling.seams", "seam_pass", "tiling"),
        Target("repro.incremental.cone", "propagate_cone", "incremental", _cone),
        Target("repro.incremental.engine", "full_recolor", "incremental"),
        *(
            Target("repro.service.frames", name, "frames")
            for name in defined_in(
                frames,
                lambda n: n.startswith(("encode_", "decode_")) or n == "response_to_message",
            )
        ),
        *(
            Target("repro.service.durability", f"SessionDurability.{name}", "durability")
            for name in ("record_seed", "record_delta", "write_checkpoint")
        ),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every layer target at every binding site in ``repro``."""
    for module in _MODULES:
        importlib.import_module(module)
    tracer.install(_targets())


_GEOMETRY = {
    "repro.core.problem.IVCInstance.from_grid_2d",
    "repro.core.problem.IVCInstance.from_grid_3d",
    "repro.kernels.substrate.shared_geometry_2d",
    "repro.kernels.substrate.shared_geometry_3d",
}
_TABLE = "repro.kernels.substrate.get_substrate"
_SCHEDULE = "repro.kernels.substrate.Substrate.wavefront_for"
_BD = {"repro.kernels.chains.bd_starts_2d", "repro.kernels.chains.bd_starts_3d"}
_BDP_ORDER = "repro.kernels.chains.bdp_recolor_order_fast"
_CONE = "repro.incremental.cone.propagate_cone"
_FULL = "repro.incremental.engine.full_recolor"
_JOURNAL = {
    "repro.service.durability.SessionDurability.record_seed",
    "repro.service.durability.SessionDurability.record_delta",
}
_CHECKPOINT = "repro.service.durability.SessionDurability.write_checkpoint"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Iterable[Span], counts: dict) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead``, from timed-phase spans
    and workload counts.

    ``counts`` may hold ``substrate`` (shape-cache ``hits``/``misses``),
    ``tiled`` (one dict per ``color_tiled`` call), ``recolor``
    (``deltas``/``fallbacks``/``cone_cells`` from recolor provenance) and
    ``service`` (deltas of the worker's own counters); absent keys mean the
    layer was idle.
    """
    spans = list(spans)
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    timed = [s for s in spans if s.phase == "timed"]

    def self_s(pred, among=timed) -> float:
        return sum(own[s.id] for s in among if pred(s))

    def calls(layer: str) -> int:
        return sum(1 for s in timed if s.layer == layer)

    out: dict[str, float] = {f"{layer}.calls": calls(layer) for layer in (
        "api", "orderings", "substrate", "wavefront", "chains", "halo",
        "tiling", "incremental", "frames", "durability",
    )}
    out["api.self_s"] = self_s(lambda s: s.layer == "api")
    out["orderings.s"] = self_s(lambda s: s.layer == "orderings")

    out["substrate.geometry_s"] = self_s(lambda s: s.name in _GEOMETRY)
    out["substrate.table_s"] = self_s(lambda s: s.name == _TABLE)
    out["substrate.schedule_s"] = self_s(lambda s: s.name == _SCHEDULE)
    out["substrate.schedule_calls"] = sum(1 for s in timed if s.name == _SCHEDULE)
    lookups = counts.get("substrate", {})
    hits = lookups.get("hits", 0)
    out["substrate.cache_hit_ratio"] = _ratio(hits, hits + lookups.get("misses", 0))
    out["substrate.setup_s"] = self_s(
        lambda s: s.layer == "substrate",
        [s for s in spans if s.phase == "setup"],
    )

    # First-fit batches are the schedules the wavefront kernels asked for;
    # the recolor engine's own schedule lookups are not batches it ran.
    schedules = [
        s
        for s in timed
        if s.name == _SCHEDULE
        and s.parent in by_id
        and by_id[s.parent].layer == "wavefront"
    ]
    batches = sum(s.attrs.get("batches", 0) for s in schedules)
    cells = sum(s.attrs.get("cells", 0) for s in schedules)
    first_fit = self_s(lambda s: s.layer == "wavefront")
    out["wavefront.first_fit_s"] = first_fit
    out["wavefront.batches"] = batches
    out["wavefront.cells_per_batch"] = _ratio(cells, batches)
    out["wavefront.ns_per_cell"] = _ratio(first_fit * 1e9, cells)

    out["chains.bd_s"] = self_s(lambda s: s.name in _BD)
    out["chains.bdp_order_s"] = self_s(lambda s: s.name == _BDP_ORDER)

    out["halo.region_s"] = self_s(lambda s: s.layer == "halo")
    out["halo.region_cells"] = sum(
        s.attrs.get("cells", 0) for s in timed if s.layer == "halo"
    )

    # Tile interiors run in forked pool workers that record no spans, so
    # the interior numbers come from what color_tiled returns.
    tiled = counts.get("tiled", [])
    seam_s = sum(s.duration for s in timed if s.layer == "tiling")
    wall = sum(t["elapsed"] for t in tiled)
    interior = sum(t["elapsed"] - t["seam_elapsed"] for t in tiled)
    busy = sum(t["tile_busy"] for t in tiled)
    jobs = max((t["jobs"] for t in tiled), default=0)
    out["tiling.seam_s"] = seam_s
    out["tiling.seam_share"] = _ratio(seam_s, wall)
    out["tiling.interior_s"] = interior
    out["tiling.tile_busy_s"] = busy
    out["tiling.interior_efficiency"] = _ratio(busy, interior * jobs)
    out["tiling.cells_computed_per_cell"] = _ratio(
        sum(t["seam_cells"] + t["padded_cells"] for t in tiled),
        sum(t["cells"] for t in tiled),
    )

    cones = [s for s in timed if s.name == _CONE]
    recolor = counts.get("recolor", {})
    deltas = recolor.get("deltas", 0)
    out["incremental.cone_s"] = sum(
        own[s.id] for s in cones if not s.attrs.get("aborted")
    )
    out["incremental.cone_aborted_s"] = sum(
        s.duration for s in cones if s.attrs.get("aborted")
    )
    out["incremental.fallback_s"] = sum(s.duration for s in timed if s.name == _FULL)
    out["incremental.fallback_ratio"] = _ratio(recolor.get("fallbacks", 0), deltas)
    out["incremental.cone_cells_per_delta"] = _ratio(recolor.get("cone_cells", 0), deltas)

    service = counts.get("service", {})
    requests = service.get("requests", 0)
    out["service.requests"] = requests
    out["service.cache_hit_ratio"] = _ratio(service.get("cache_hits", 0), requests)
    out["service.fastpath_ratio"] = _ratio(service.get("fastpath_hits", 0), requests)
    out["service.compute_p50_ms"] = service.get("compute_p50_ms", 0.0)

    out["frames.codec_s"] = self_s(lambda s: s.layer == "frames")
    out["durability.journal_s"] = self_s(lambda s: s.name in _JOURNAL)
    out["durability.checkpoint_s"] = self_s(lambda s: s.name == _CHECKPOINT)
    out["trace.spans"] = len(timed)
    return out
