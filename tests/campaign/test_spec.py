"""Spec parsing, validation, includes, and fingerprints."""

from __future__ import annotations

import pytest

from repro.campaign import (
    SpecError,
    UnknownReportError,
    UnknownScenarioError,
    load_spec,
    spec_from_canonical,
)
from repro.core.algorithms.registry import ALGORITHMS

from tests.campaign.conftest import TINY_SPEC, write_spec


def test_parse_minimal_defaults(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "m"\n\n[scenario]\nkind = "scaling_grids"\n',
        "m.toml",
    )
    spec = load_spec(path)
    assert spec.name == "m"
    assert spec.version == 1
    assert spec.algorithms == tuple(ALGORITHMS)  # default: the paper's seven
    assert spec.reports == ()
    assert spec.source == path


def test_tiny_spec_parses(tiny_spec):
    assert tiny_spec.algorithms == ("GLL", "BD")
    assert [r.kind for r in tiny_spec.reports] == ["runtime"]
    assert tiny_spec.scenario["kind"] == "scaling_grids"


def test_unknown_top_level_key(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "scaling_grids"\n\n[reprots]\nfoo = 1\n',
        "x.toml",
    )
    with pytest.raises(SpecError, match="reprots"):
        load_spec(path)


def test_missing_campaign_table(tmp_path):
    path = write_spec(tmp_path, '[scenario]\nkind = "scaling_grids"\n', "x.toml")
    with pytest.raises(SpecError, match="campaign"):
        load_spec(path)


def test_missing_name(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\ndescription = "d"\n\n[scenario]\nkind = "scaling_grids"\n',
        "x.toml",
    )
    with pytest.raises(SpecError, match="name"):
        load_spec(path)


def test_bad_version(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\nversion = 2\n\n[scenario]\nkind = "scaling_grids"\n',
        "x.toml",
    )
    with pytest.raises(SpecError, match="version"):
        load_spec(path)


def test_unknown_scenario_kind_suggests(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "suite2"\n',
        "x.toml",
    )
    with pytest.raises(UnknownScenarioError, match="suite2d"):
        load_spec(path)


def test_unknown_scenario_param(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "scaling_grids"\nsids = [4]\n',
        "x.toml",
    )
    with pytest.raises(SpecError, match="sids"):
        load_spec(path)


def test_unknown_algorithm_suggests(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "scaling_grids"\n\n'
        '[matrix]\nalgorithms = ["GLE"]\n',
        "x.toml",
    )
    with pytest.raises(SpecError, match="GL"):
        load_spec(path)


def test_duplicate_algorithm(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "scaling_grids"\n\n'
        '[matrix]\nalgorithms = ["GLL", "GLL"]\n',
        "x.toml",
    )
    with pytest.raises(SpecError, match="duplicate"):
        load_spec(path)


def test_unknown_runtime_field(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "scaling_grids"\n\n'
        "[runtime]\nnot_a_knob = 1\n",
        "x.toml",
    )
    with pytest.raises(SpecError, match="not_a_knob"):
        load_spec(path)


def test_fast_paths_must_be_a_toml_bool(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "scaling_grids"\n\n'
        '[runtime]\nfast_paths = "off"\n',
        "x.toml",
    )
    with pytest.raises(SpecError, match="fast_paths must be a bool"):
        load_spec(path)


def test_unknown_run_key(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "scaling_grids"\n\n'
        "[run]\nworkers = 4\n",
        "x.toml",
    )
    with pytest.raises(SpecError, match="workers"):
        load_spec(path)


def test_unknown_report_kind_suggests(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "scaling_grids"\n\n'
        '[[report]]\nkind = "runtim"\ntitle = "t"\n',
        "x.toml",
    )
    with pytest.raises(UnknownReportError, match="runtime"):
        load_spec(path)


def test_report_missing_required_param(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "scaling_grids"\n\n'
        '[[report]]\nkind = "quality"\ntitle = "t"\n',
        "x.toml",
    )
    with pytest.raises(SpecError, match="bound_label"):
        load_spec(path)


def test_report_unknown_param(tmp_path):
    path = write_spec(
        tmp_path,
        '[campaign]\nname = "x"\n\n[scenario]\nkind = "scaling_grids"\n\n'
        '[[report]]\nkind = "runtime"\ntitle = "t"\nbound_label = "LB"\n',
        "x.toml",
    )
    with pytest.raises(SpecError, match="bound_label"):
        load_spec(path)


def test_include_merges_child_wins(tmp_path):
    write_spec(
        tmp_path,
        '[campaign]\nname = "base"\n\n[scenario]\nkind = "scaling_grids"\nseed = 0\nsides = [4]\n',
        "base.toml",
    )
    child = write_spec(
        tmp_path,
        'include = ["base.toml"]\n\n[campaign]\nname = "child"\n\n[scenario]\nseed = 9\n',
        "child.toml",
    )
    spec = load_spec(child)
    assert spec.name == "child"
    assert spec.scenario["seed"] == 9  # child wins
    assert spec.scenario["sides"] == [4]  # inherited


def test_include_cycle(tmp_path):
    write_spec(tmp_path, 'include = ["b.toml"]\n[campaign]\nname = "a"\n', "a.toml")
    write_spec(tmp_path, 'include = ["a.toml"]\n[campaign]\nname = "b"\n', "b.toml")
    with pytest.raises(SpecError, match="[Cc]ycl"):
        load_spec(tmp_path / "a.toml")


def test_plan_fingerprint_ignores_name_and_reports(tmp_path):
    a = load_spec(write_spec(tmp_path, TINY_SPEC, "a.toml"))
    b_text = TINY_SPEC.replace('name = "tiny"', 'name = "other"').replace(
        'title = "tiny runtime"', 'title = "other runtime"'
    )
    b = load_spec(write_spec(tmp_path, b_text, "b.toml"))
    assert a.plan_fingerprint() == b.plan_fingerprint()
    assert a.fingerprint() != b.fingerprint()


def test_plan_fingerprint_tracks_scenario(tmp_path):
    a = load_spec(write_spec(tmp_path, TINY_SPEC, "a.toml"))
    b = load_spec(
        write_spec(tmp_path, TINY_SPEC.replace("seed = 3", "seed = 4"), "b.toml")
    )
    assert a.plan_fingerprint() != b.plan_fingerprint()


def test_with_scenario_identity_and_override(tiny_spec):
    same = tiny_spec.with_scenario(seed=3)
    assert same.plan_fingerprint() == tiny_spec.plan_fingerprint()
    assert same.reports == tiny_spec.reports
    other = tiny_spec.with_scenario(seed=11)
    assert other.plan_fingerprint() != tiny_spec.plan_fingerprint()
    assert other.scenario["seed"] == 11


def test_canonical_round_trip(tiny_spec):
    clone = spec_from_canonical(tiny_spec.canonical())
    assert clone.canonical() == tiny_spec.canonical()
    assert clone.fingerprint() == tiny_spec.fingerprint()
