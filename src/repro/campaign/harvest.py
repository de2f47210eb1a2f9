"""Aggregate a campaign artifact dir into one versioned harvest document.

``harvest.json`` is the self-contained result of a campaign: the spec (as
canonical JSON) with both fingerprints and git provenance, the instance
inventory, every deduplicated :class:`~repro.engine.records.RunRecord`, the
summed supervision counters, and the merged
:mod:`repro.obs` metrics of every run session.  Reports render from a
harvest alone — no instance rebuilding, no engine — which is what makes
figure tables reproducible from a committed artifact.

Deduplication follows the engine's resume semantics: ``runs.jsonl`` is
append-only, so a cell that was retried or re-run appears multiple times
and the **last** occurrence wins.  A harvest refuses incomplete artifacts
(missing cells → :class:`~repro.campaign.errors.HarvestError` with a
``--resume`` hint) rather than producing silently truncated tables.

:func:`harvest_digest` is the identity used by the crash-equivalence test:
a stable digest over everything *deterministic* in the harvest — spec and
plan fingerprints, instances, and per-cell outcomes — excluding wall-clock
fields (``elapsed``, ``worker``, ``created``, session counts), so an
interrupted-then-resumed campaign hashes identically to an uninterrupted
one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from repro.campaign.errors import HarvestError
from repro.campaign.artifacts import publish_json
from repro.campaign.runner import _now, read_manifest
from repro.engine import RunRecord
from repro.engine.runlog import read_run_log
from repro.experiments import InstanceHandle, SuiteResult, suite_result_from_records
from repro.obs.metrics import merge_snapshots
from repro.resilience import durable

__all__ = [
    "HARVEST_VERSION",
    "harvest_campaign",
    "load_harvest",
    "suite_result_from_harvest",
    "harvest_digest",
]

HARVEST_VERSION = 1


def harvest_campaign(
    out_dir: str | Path, *, write: bool = True, created: Optional[str] = None
) -> dict:
    """Fold an artifact dir's logs into one harvest document.

    ``write=True`` (default) also persists it as ``<out_dir>/harvest.json``.
    """
    out = Path(out_dir)
    manifest = read_manifest(out)
    runs_path = out / "runs.jsonl"
    if not runs_path.is_file():
        raise HarvestError(
            f"{out}: no runs.jsonl — nothing to harvest "
            "(run `stencil-ivc campaign run` first)"
        )

    algorithms = list(manifest["algorithms"])
    instances = manifest["instances"]
    n = len(instances)
    alg_pos = {name: j for j, name in enumerate(algorithms)}
    name_of = {i: inst["name"] for i, inst in enumerate(instances)}

    # Last occurrence wins (append-only log: retries/re-runs come later).
    cells: dict[tuple[int, str], RunRecord] = {}
    for record in read_run_log(runs_path):
        if record.algorithm not in alg_pos:
            continue  # not part of this plan (defensive)
        if name_of.get(record.instance_index) != record.instance:
            continue  # stale record from a different plan layout
        cells[(record.instance_index, record.algorithm)] = record

    missing = [
        (i, a)
        for i in range(n)
        for a in algorithms
        if (i, a) not in cells
    ]
    if missing:
        i, a = missing[0]
        raise HarvestError(
            f"{out}: incomplete run — {len(missing)}/{n * len(algorithms)} "
            f"cells missing (first: instance {name_of[i]!r} × {a}); "
            "finish it with `stencil-ivc campaign run --resume`"
        )

    ordered = [
        cells[(i, a)].to_json() for i in range(n) for a in algorithms
    ]
    for rec in ordered:
        rec.pop("starts", None)  # never persisted into harvests

    # A torn or damaged session line is skipped: sessions only feed counters.
    sessions = [
        s for s in durable.read(out / "sessions.jsonl").records if isinstance(s, dict)
    ]
    metrics = merge_snapshots(
        (s["metrics"] for s in sessions if s.get("metrics")), include_state=False
    )
    supervision = {
        key: sum(int(s.get(key, 0)) for s in sessions)
        for key in ("cells_executed", "cells_resumed", "cells_retried", "pool_restarts")
    }
    failures = sum(1 for rec in ordered if rec["status"] != "ok")

    harvest = {
        "harvest_version": HARVEST_VERSION,
        "campaign": manifest["campaign"],
        "description": manifest.get("description", ""),
        "created": created if created is not None else _now(),
        "spec": manifest["spec"],
        "spec_fingerprint": manifest["spec_fingerprint"],
        "plan_fingerprint": manifest["plan_fingerprint"],
        "git": manifest.get("git"),
        "algorithms": algorithms,
        "instances": instances,
        "records": ordered,
        "failures": failures,
        "supervision": supervision,
        "sessions": len(sessions),
        "metrics": metrics,
    }
    if write:
        publish_json(out / "harvest.json", json.dumps(harvest, sort_keys=True))
    return harvest


def load_harvest(path: str | Path) -> dict:
    """Read a harvest document (a ``harvest.json`` or its artifact dir)."""
    path = Path(path)
    if path.is_dir():
        path = path / "harvest.json"
    if not path.is_file():
        raise HarvestError(
            f"{path}: no harvest found — run `stencil-ivc campaign harvest` first"
        )
    harvest = json.loads(path.read_text())
    version = harvest.get("harvest_version")
    if version != HARVEST_VERSION:
        raise HarvestError(
            f"{path}: harvest version {version!r} unsupported "
            f"(this build reads {HARVEST_VERSION})"
        )
    return harvest


def suite_result_from_harvest(harvest: dict, on_error: str = "record") -> SuiteResult:
    """Reconstruct a :class:`~repro.experiments.SuiteResult` from a harvest.

    Instances come back as :class:`~repro.experiments.InstanceHandle`
    stand-ins — every report builder works on those; only recomputation
    (the MILP comparison) rebuilds real instances from the embedded spec.
    """
    handles = [
        InstanceHandle(
            name=inst["name"],
            shape=tuple(inst["shape"]) if inst.get("shape") is not None else None,
            num_vertices=int(inst.get("num_vertices", 0)),
            metadata=inst.get("metadata", {}),
        )
        for inst in harvest["instances"]
    ]
    records = [RunRecord.from_json(rec) for rec in harvest["records"]]
    result = suite_result_from_records(
        handles, harvest["algorithms"], records, on_error=on_error
    )
    supervision = harvest.get("supervision", {})
    result.pool_restarts = int(supervision.get("pool_restarts", 0))
    result.cells_retried = int(supervision.get("cells_retried", 0))
    result.cells_resumed = int(supervision.get("cells_resumed", 0))
    return result


#: RunRecord fields that are deterministic given the plan (everything
#: wall-clock or process-identity is excluded from the digest).
_DIGEST_RECORD_FIELDS = (
    "instance_index",
    "instance",
    "shape",
    "algorithm",
    "status",
    "maxcolor",
    "lower_bound",
)


def harvest_digest(harvest: dict) -> str:
    """Stable identity of a harvest's deterministic content.

    Interrupted+resumed and uninterrupted runs of the same spec produce
    equal digests: timing (``elapsed``), worker ids, timestamps, session
    counts, and metrics are all excluded.
    """
    doc = {
        "spec_fingerprint": harvest["spec_fingerprint"],
        "plan_fingerprint": harvest["plan_fingerprint"],
        "algorithms": harvest["algorithms"],
        "instances": harvest["instances"],
        "records": [
            {key: rec.get(key) for key in _DIGEST_RECORD_FIELDS}
            for rec in harvest["records"]
        ],
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()
