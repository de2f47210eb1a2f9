"""Campaign execution and harvesting: manifests, resume adoption, digests."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignError,
    HarvestError,
    ResumeMismatchError,
    harvest_campaign,
    harvest_digest,
    load_harvest,
    load_spec,
    read_manifest,
    run_campaign,
    suite_result_from_harvest,
)

from tests.campaign.conftest import TINY_SPEC, write_spec


def _run_tiny(tmp_path, subdir="run"):
    spec = load_spec(write_spec(tmp_path))
    out = tmp_path / subdir
    run_campaign(spec, out_dir=out)
    return spec, out


def test_run_writes_manifest_and_log(tmp_path):
    spec, out = _run_tiny(tmp_path)
    manifest = read_manifest(out)
    assert manifest["campaign"] == "tiny"
    assert manifest["num_cells"] == 4
    assert manifest["plan_fingerprint"] == spec.plan_fingerprint()
    assert manifest["spec_fingerprint"] == spec.fingerprint()
    assert [i["name"] for i in manifest["instances"]] == [
        "scaling-4x4",
        "scaling-6x6",
    ]
    lines = (out / "runs.jsonl").read_text().splitlines()
    assert len(lines) == 4
    sessions = (out / "sessions.jsonl").read_text().splitlines()
    assert len(sessions) == 1
    session = json.loads(sessions[0])
    assert session["cells_executed"] == 4
    assert session["cells_resumed"] == 0


def test_harvest_round_trip(tmp_path):
    spec, out = _run_tiny(tmp_path)
    harvest = harvest_campaign(out)
    assert harvest["campaign"] == "tiny"
    assert len(harvest["records"]) == 4
    assert harvest["failures"] == 0
    # Written artifact loads back identically.
    assert load_harvest(out) == harvest
    result = suite_result_from_harvest(harvest)
    assert result.num_instances == 2
    assert list(result.algorithms) == ["GLL", "BD"]
    assert all(v > 0 for vs in result.maxcolors.values() for v in vs)


def test_refuses_dirty_dir_without_resume(tmp_path):
    spec, out = _run_tiny(tmp_path)
    with pytest.raises(CampaignError, match="resume"):
        run_campaign(spec, out_dir=out)


def test_resume_adopts_everything(tmp_path):
    spec, out = _run_tiny(tmp_path)
    digest_before = harvest_digest(harvest_campaign(out))
    result = run_campaign(spec, out_dir=out, resume=True)
    assert result.session["cells_resumed"] == 4
    assert result.session["cells_executed"] == 0
    assert harvest_digest(harvest_campaign(out)) == digest_before
    # Adopted records keep their original elapsed values verbatim, so even
    # the full record list is identical, timings included.
    sessions = (out / "sessions.jsonl").read_text().splitlines()
    assert len(sessions) == 2


def test_resume_refuses_other_plan(tmp_path):
    spec, out = _run_tiny(tmp_path)
    other = load_spec(
        write_spec(tmp_path, TINY_SPEC.replace("seed = 3", "seed = 5"), "o.toml")
    )
    with pytest.raises(ResumeMismatchError):
        run_campaign(other, out_dir=out, resume=True)


def test_resume_after_torn_tail(tmp_path):
    """A crash mid-append leaves a torn final line; resume compacts it and
    re-executes only the lost cell."""
    spec, out = _run_tiny(tmp_path)
    log = out / "runs.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    clean = harvest_digest(harvest_campaign_reference(tmp_path))
    result = run_campaign(spec, out_dir=out, resume=True)
    assert result.session["cells_resumed"] == 3
    assert result.session["cells_executed"] == 1
    # The compacted-and-completed log harvests strictly, and the digest
    # matches an uninterrupted run of the same plan.
    assert harvest_digest(harvest_campaign(out)) == clean


def test_torn_session_line_keeps_the_next_session(tmp_path):
    """A session line torn by a crash must not swallow the next one."""
    spec, out = _run_tiny(tmp_path)
    run_campaign(spec, out_dir=out, resume=True)
    sessions = out / "sessions.jsonl"
    lines = sessions.read_text().splitlines(keepends=True)
    sessions.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
    before = harvest_campaign(out)["sessions"]
    assert before == 1
    run_campaign(spec, out_dir=out, resume=True)
    assert harvest_campaign(out)["sessions"] == before + 1


def harvest_campaign_reference(tmp_path):
    """An uninterrupted run of the tiny plan in a fresh dir."""
    spec = load_spec(write_spec(tmp_path))
    out = tmp_path / "reference"
    run_campaign(spec, out_dir=out)
    return harvest_campaign(out)


def test_harvest_missing_cells_hints_resume(tmp_path):
    spec, out = _run_tiny(tmp_path)
    log = out / "runs.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines[:-1]))  # drop one completed cell
    with pytest.raises(HarvestError, match="--resume"):
        harvest_campaign(out)


def test_harvest_digest_ignores_timings(tmp_path):
    """Two independent runs of the same plan agree on the digest (timings
    and session bookkeeping are excluded by construction)."""
    _, out_a = _run_tiny(tmp_path, "a")
    _, out_b = _run_tiny(tmp_path, "b")
    ha, hb = harvest_campaign(out_a), harvest_campaign(out_b)
    assert harvest_digest(ha) == harvest_digest(hb)
    ra, rb = ha["records"], hb["records"]
    assert [r["maxcolor"] for r in ra] == [r["maxcolor"] for r in rb]


def test_spec_runtime_overrides_flow_into_context(tmp_path):
    spec = load_spec(
        write_spec(
            tmp_path,
            TINY_SPEC + "\n[runtime]\nfast_paths = false\nmax_cell_retries = 7\n",
            "rt.toml",
        )
    )
    out = tmp_path / "rt"
    run_campaign(spec, out_dir=out)
    manifest = read_manifest(out)
    assert manifest["spec"]["runtime"] == {"fast_paths": False, "max_cell_retries": 7}
