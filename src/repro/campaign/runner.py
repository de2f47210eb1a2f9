"""Execute a compiled campaign plan through the supervised batch engine.

One ``run_campaign`` call is one *session* against an artifact directory::

    <out>/
      manifest.json     # written once: spec + fingerprints + plan inventory
      runs.jsonl        # engine per-cell RunRecord stream (append-only)
      sessions.jsonl    # one line per session: counters + metrics snapshot
      harvest.json      # written by `campaign harvest`
      reports/          # written by `campaign report`

Sessions compose through the engine's resume adoption: ``resume=True``
replays ``runs.jsonl`` as ``resume_from``, so completed (``ok``/``timeout``)
cells are adopted verbatim — including their measured ``elapsed`` — and only
missing or errored cells execute.  A SIGKILLed run therefore continues
exactly where it died, and a fully-complete artifact re-runs as a no-op.
Resuming refuses artifact dirs created from a *different* plan
(:class:`~repro.campaign.errors.ResumeMismatchError` — fingerprints must
match), which is also what lets several specs that share a plan (the figure
specs all including one base) share a single artifact dir safely.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from repro.campaign.artifacts import campaign_dir, publish_json
from repro.campaign.errors import CampaignError, HarvestError, ResumeMismatchError
from repro.campaign.plan import RunPlan, compile_plan
from repro.campaign.spec import CampaignSpec
from repro.engine import run_grid
from repro.resilience import durable
from repro.runtime.context import ExecutionContext, get_context

__all__ = ["CampaignRunResult", "run_campaign", "read_manifest", "MANIFEST_VERSION"]

MANIFEST_VERSION = 1


@dataclass
class CampaignRunResult:
    """What one campaign session produced."""

    out_dir: Path
    plan: RunPlan
    records: list  # GridResult (list[RunRecord] + supervision counters)
    session: dict  # the sessions.jsonl line this session appended


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _git_info(anchor: Optional[Path]) -> Optional[dict]:
    """Best-effort git provenance: commit hash + dirty flag (None outside
    a repo or without git)."""
    cwd = anchor if anchor is not None and anchor.is_dir() else Path.cwd()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if commit.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        return {
            "commit": commit.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    except (OSError, subprocess.SubprocessError):
        return None


def _handle_json(handle) -> dict:
    return {
        "name": handle.name,
        "shape": list(handle.shape) if handle.shape is not None else None,
        "num_vertices": handle.num_vertices,
        "metadata": handle.metadata,
    }


def read_manifest(out_dir: str | Path) -> dict:
    """Load and version-check an artifact dir's manifest."""
    path = Path(out_dir) / "manifest.json"
    if not path.is_file():
        raise HarvestError(
            f"{out_dir}: no manifest.json — not a campaign artifact dir "
            "(run `stencil-ivc campaign run` first)"
        )
    manifest = json.loads(path.read_text())
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise HarvestError(
            f"{path}: manifest version {version!r} unsupported "
            f"(this build reads {MANIFEST_VERSION})"
        )
    return manifest


def run_campaign(
    spec: CampaignSpec,
    out_dir: str | Path | None = None,
    *,
    jobs: Optional[int] = None,
    resume: bool = False,
    cell_timeout: Optional[float] = None,
    max_cell_retries: Optional[int] = None,
    root: str | Path | None = None,
    context: Optional[ExecutionContext] = None,
) -> CampaignRunResult:
    """Plan and execute a campaign session into an artifact directory.

    Parameters
    ----------
    out_dir:
        Artifact directory; default ``<artifact_root>/campaigns/<name>``.
    jobs:
        Engine worker processes (explicit argument beats the spec's
        ``run.jobs`` beats serial).
    resume:
        Adopt completed cells from the dir's existing ``runs.jsonl``.
        Without it, a dir that already holds run records is refused.
    cell_timeout / max_cell_retries:
        Explicit overrides over the spec (``run.cell_timeout``) and the
        runtime config respectively.
    root:
        Artifact root override (``--out``) when ``out_dir`` is not given.
    context:
        Base execution context; the spec's ``[runtime]`` table is applied
        on top of its config for the duration of the run.
    """
    plan = compile_plan(spec)
    out = Path(out_dir) if out_dir is not None else campaign_dir(spec.name, root)
    out.mkdir(parents=True, exist_ok=True)

    plan_fp = plan.fingerprint()
    manifest_path = out / "manifest.json"
    runs_path = out / "runs.jsonl"
    if manifest_path.is_file():
        manifest = read_manifest(out)
        found = manifest.get("plan_fingerprint", "")
        if found != plan_fp:
            raise ResumeMismatchError(out, expected=plan_fp, found=found)
        if runs_path.is_file() and not resume:
            raise CampaignError(
                f"{out}: artifact dir already holds run records — pass "
                "resume=True/--resume to adopt completed cells, or use a "
                "fresh --out dir"
            )
    else:
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "campaign": spec.name,
            "description": spec.description,
            "created": _now(),
            "spec": spec.canonical(),
            "spec_fingerprint": spec.fingerprint(),
            "plan_fingerprint": plan_fp,
            "git": _git_info(spec.source.parent if spec.source else None),
            "algorithms": list(plan.algorithms),
            "instances": [_handle_json(h) for h in plan.handles()],
            "num_cells": plan.num_cells,
        }
        publish_json(manifest_path, json.dumps(manifest, indent=2, sort_keys=True))

    base = context if context is not None else get_context()
    config = (
        base.config.with_overrides(**spec.runtime) if spec.runtime else base.config
    )
    ctx = ExecutionContext(config)
    ctx.install_faults()

    run_cfg = spec.run
    effective_jobs = jobs if jobs is not None else run_cfg.get("jobs", 1)
    effective_timeout = (
        cell_timeout if cell_timeout is not None else run_cfg.get("cell_timeout")
    )

    started = _now()
    t0 = time.perf_counter()
    records = run_grid(
        list(plan.instances),
        list(plan.algorithms),
        jobs=effective_jobs,
        validate=run_cfg.get("validate", True),
        cell_timeout=effective_timeout,
        log_path=runs_path,
        max_cell_retries=max_cell_retries,
        resume_from=runs_path if resume and runs_path.is_file() else None,
        context=ctx,
        metrics_state=True,
    )
    elapsed = time.perf_counter() - t0

    cells_resumed = getattr(records, "cells_resumed", 0)
    session = {
        "started": started,
        "elapsed": elapsed,
        "jobs": effective_jobs,
        "resume": bool(resume),
        "cells_executed": len(records) - cells_resumed,
        "cells_resumed": cells_resumed,
        "cells_retried": getattr(records, "cells_retried", 0),
        "pool_restarts": getattr(records, "pool_restarts", 0),
        "git": _git_info(spec.source.parent if spec.source else None),
        "metrics": getattr(records, "metrics", {}),
    }
    durable.append(out / "sessions.jsonl", json.dumps(session, sort_keys=True))

    return CampaignRunResult(out_dir=out, plan=plan, records=records, session=session)
