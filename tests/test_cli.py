"""Tests for the ``stencil-ivc`` command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for cmd in ("solve", "suite", "optimal", "stkde", "npc", "algorithms",
                    "serve", "loadgen"):
            args = parser.parse_args([cmd] if cmd != "solve" else ["solve", "x.npy"])
            assert hasattr(args, "func")

    def test_jobs_flag_on_experiment_subcommands(self):
        parser = build_parser()
        for cmd in ("suite", "optimal", "stkde"):
            assert parser.parse_args([cmd, "--jobs", "3"]).jobs == 3
            assert parser.parse_args([cmd]).jobs == 0  # 0 = all cores

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"stencil-ivc {__version__}"

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2  # argparse usage-error convention
        err = capsys.readouterr().err
        assert "usage:" in err and "frobnicate" in err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8765
        assert args.queue_limit == 256

    @pytest.mark.parametrize(
        "flag", [["--max-batch", "4"], ["--batch-window-ms", "0"],
                 ["--compute-threads", "2"]],
    )
    def test_retired_serve_flags_are_usage_errors(self, capsys, flag):
        # One compute thread runs a FIFO queue: no batch or thread knobs.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.requests == 200
        assert args.concurrency == 8
        assert args.algorithm == "BDP"
        assert args.shapes == "32x32,48x48"

    @pytest.mark.parametrize(
        "prefix, full, dest, value",
        [
            (["serve", "--spill", "/tmp/x.jsonl"],
             ["serve", "--spill-dir", "/tmp/x"], "spill_dir", "/tmp/x"),
            (["loadgen", "--connect", "3"],
             ["loadgen", "--connect-retries", "3"], "connect_retries", 3),
            (["campaign", "run", "s.toml", "--resu"],
             ["campaign", "run", "s.toml", "--resume"], "resume", True),
        ],
    )
    def test_flag_prefixes_are_usage_errors(self, capsys, prefix, full, dest,
                                            value):
        # A retired flag that prefixes a live one must fail, not alias it.
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(prefix)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert getattr(parser.parse_args(full), dest) == value


class TestAlgorithms:
    def test_lists_registry_specs(self, capsys):
        rc = main(["algorithms"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("GLL", "BDP", "GSL", "GLF+LS"):
            assert name in out
        assert "extension" in out and "paper" in out

    @pytest.mark.parametrize("env,kernel", [(None, "kernel"), ("0", "kernel (off)")])
    def test_kernel_column_follows_the_config(self, capsys, monkeypatch, env, kernel):
        if env is None:
            monkeypatch.delenv("REPRO_FAST_PATHS", raising=False)
        else:
            monkeypatch.setenv("REPRO_FAST_PATHS", env)
        assert main(["algorithms"]) == 0
        rows = {
            line.split()[0]: line
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        }
        for name in ("GLL", "BDP", "GLF+P", "GKF", "SGK-ws"):
            assert f" {kernel} " in rows[name], rows[name]
        assert " kernel" not in rows["SGK"] and " - " in rows["SGK"], rows["SGK"]
        if env is None:
            assert "kernel (off)" not in "".join(rows.values())

    def test_paper_only(self, capsys):
        rc = main(["algorithms", "--paper-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BDP" in out and "GSL" not in out


class TestSolve:
    def test_solve_npy(self, tmp_path, capsys):
        path = tmp_path / "weights.npy"
        np.save(path, np.random.default_rng(0).integers(0, 9, size=(5, 5)))
        rc = main(["solve", str(path), "--algorithm", "BDP"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "maxcolor" in out and "BDP" in out

    def test_solve_text_3d_saves_output(self, tmp_path, capsys):
        path = tmp_path / "weights.npy"
        out_path = tmp_path / "starts.npy"
        np.save(path, np.ones((3, 3, 3), dtype=np.int64))
        rc = main(["solve", str(path), "--algorithm", "GLF", "--output", str(out_path)])
        assert rc == 0
        starts = np.load(out_path)
        assert starts.shape == (3, 3, 3)

    def test_solve_bad_ndim(self, tmp_path, capsys):
        path = tmp_path / "weights.npy"
        np.save(path, np.ones(5, dtype=np.int64))
        assert main(["solve", str(path)]) == 2


class TestBounds:
    def test_bounds_2d(self, tmp_path, capsys):
        path = tmp_path / "w.npy"
        np.save(path, np.full((4, 4), 3, dtype=np.int64))
        rc = main(["bounds", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clique blocks   : 12" in out
        assert "combined bound  : 12" in out

    def test_bounds_with_odd_cycles(self, tmp_path, capsys):
        from repro.data.paper_instances import figure2_odd_cycle

        path = tmp_path / "w.npy"
        np.save(path, figure2_odd_cycle().weight_grid())
        rc = main(["bounds", str(path), "--odd-cycles", "--max-cycle-len", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "combined bound  : 30" in out

    def test_bounds_bad_ndim(self, tmp_path):
        path = tmp_path / "w.npy"
        np.save(path, np.ones(3))
        assert main(["bounds", str(path)]) == 2


class TestExact:
    def test_exact_small(self, tmp_path, capsys):
        path = tmp_path / "w.npy"
        out_path = tmp_path / "opt.npy"
        np.save(path, np.array([[2, 3], [4, 5]], dtype=np.int64))
        rc = main(["exact", str(path), "--output", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "maxcolor : 14" in out  # K4 stacks to the total weight
        assert np.load(out_path).shape == (2, 2)


class TestSuites:
    def test_suite_2d_tiny(self, capsys):
        rc = main(["suite", "--dim", "2", "--scale", "0.02",
                   "--dim-cap", "2", "--max-cells", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BDP" in out and "tau" in out

    def test_suite_parallel_with_run_log(self, tmp_path, capsys):
        from repro.engine import read_run_log

        log = tmp_path / "run.jsonl"
        rc = main(["suite", "--dim", "2", "--scale", "0.02",
                   "--dim-cap", "2", "--max-cells", "16",
                   "--jobs", "2", "--run-log", str(log)])
        assert rc == 0
        assert "BDP" in capsys.readouterr().out
        records = read_run_log(log)
        assert records and all(r.ok for r in records)

    def test_optimal_tiny(self, capsys):
        rc = main(["optimal", "--dim", "2", "--scale", "0.02",
                   "--dim-cap", "2", "--max-cells", "16", "--time-limit", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MILP solved" in out


class TestGantt:
    def test_gantt_writes_svg(self, tmp_path, capsys):
        path = tmp_path / "w.npy"
        out = tmp_path / "g.svg"
        np.save(path, np.random.default_rng(1).integers(1, 9, size=(5, 5)))
        rc = main(["gantt", str(path), "--workers", "3", "--output", str(out)])
        assert rc == 0
        import xml.etree.ElementTree as ET

        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")
        assert "makespan" in capsys.readouterr().out


class TestDataDir:
    def test_suite_from_csv_directory(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = ["x,y,t"] + [
            f"{x:.3f},{y:.3f},{t:.3f}"
            for x, y, t in rng.uniform(0, 100, size=(150, 3))
        ]
        (tmp_path / "mydata.csv").write_text("\n".join(rows) + "\n")
        rc = main(["suite", "--dim", "2", "--dim-cap", "4", "--max-cells", "64",
                   "--data-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "suite" in out and "BDP" in out


class TestPartition:
    def test_partition_comparison(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        # Clustered events so balancing visibly helps.
        pts = np.vstack(
            [rng.normal([20, 20], 2.0, size=(200, 2)), rng.uniform(0, 100, size=(100, 2))]
        )
        t = rng.uniform(0, 10, size=300)
        rows = ["x,y,t"] + [f"{x:.3f},{y:.3f},{ti:.3f}" for (x, y), ti in zip(pts, t)]
        path = tmp_path / "events.csv"
        path.write_text("\n".join(rows) + "\n")
        rc = main(
            ["partition", str(path), "--parts-x", "4", "--parts-y", "4",
             "--bandwidth-x", "5", "--bandwidth-y", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "balanced" in out and "clique bound" in out


class TestNpc:
    def test_satisfiable_demo(self, capsys):
        rc = main(["npc", "--vars", "3", "--clauses", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "colorable with 14 colors: True" in out

    def test_fano_demo(self, capsys):
        rc = main(["npc", "--fano"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "colorable with 14 colors: False" in out


class TestService:
    def test_loadgen_spawn_verified(self, capsys):
        rc = main(["loadgen", "--spawn", "--requests", "12", "--concurrency", "2",
                   "--shapes", "8x8", "--distinct", "2", "--algorithm", "GLL",
                   "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 divergences vs direct color_with" in out
        assert "hit rate" in out


class TestStkde:
    def test_stkde_tiny(self, capsys):
        rc = main(["stkde", "--scale", "0.05", "--workers", "2",
                   "--bandwidth-divisor", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "colors-vs-runtime" in out


class TestRuntimeFlag:
    def test_runtime_choices_on_suite(self):
        parser = build_parser()
        assert parser.parse_args(["suite", "--runtime", "kernels"]).runtime == "kernels"
        assert parser.parse_args(["suite"]).runtime is None
        with pytest.raises(SystemExit):
            parser.parse_args(["suite", "--runtime", "turbo"])

    def test_fast_path_is_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--help"])
        help_text = capsys.readouterr().out
        assert "--runtime" in help_text
        assert "--fast-path" not in help_text


class TestTile:
    def test_tile_verify_synthetic(self, capsys):
        import json

        rc = main(["tile", "--shape", "40x30", "--tile", "16x16",
                   "--verify"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verify"]["identical"] is True
        assert summary["tiles"] == 6
        assert summary["maxcolor"] == summary["verify"]["maxcolor"]

    def test_tile_from_npy_with_output(self, tmp_path, capsys):
        import json

        weights = np.random.default_rng(0).integers(
            1, 50, size=(20, 20), dtype=np.int64)
        src = tmp_path / "w.npy"
        np.save(src, weights)
        out = tmp_path / "starts.npy"
        rc = main(["tile", "--input", str(src), "--tile", "8x8",
                   "--out", str(out), "--verify"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verify"]["identical"] is True
        assert np.load(out).shape == (20, 20)

    def test_tile_resume_from_log(self, tmp_path, capsys):
        import json

        log = tmp_path / "tiles.jsonl"
        rc = main(["tile", "--shape", "30x20", "--tile", "10x10",
                   "--log", str(log)])
        assert rc == 0
        first = json.loads(capsys.readouterr().out)
        rc = main(["tile", "--shape", "30x20", "--tile", "10x10",
                   "--log", str(log), "--resume"])
        assert rc == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["resumed_tiles"] == first["tiles"]
        assert resumed["digest"] == first["digest"]

    def test_tile_requires_exactly_one_source(self, capsys):
        assert main(["tile"]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestSessions:
    """Offline `stencil-ivc sessions` against a populated spill directory."""

    @pytest.fixture()
    def spill(self, tmp_path):
        from repro.incremental.engine import full_recolor
        from repro.runtime.config import DurabilityConfig
        from repro.service.durability import SessionDurability
        from repro.service.sessions import RecolorSession

        store = SessionDurability(
            tmp_path / "sessions", DurabilityConfig(checkpoint_interval=0)
        )
        weights = np.random.default_rng(3).integers(
            1, 50, size=(8, 8), dtype=np.int64)
        starts = full_recolor(weights, "GLF")
        session = RecolorSession(
            session_id="cli-demo", algorithm="GLF", weights=weights,
            starts=starts, maxcolor=int((starts + weights).max()),
            created=0.0, touched=0.0,
        )
        store.record_seed(session)
        current = weights.copy()
        rng = np.random.default_rng(4)
        for seq in (1, 2, 3):
            idx = rng.choice(current.size, size=2, replace=False)
            vals = rng.integers(1, 50, size=2, dtype=np.int64)
            store.record_delta("cli-demo", seq, idx, vals)
            current.ravel()[idx] = vals
        return tmp_path

    def test_list_human_and_json(self, spill, capsys):
        import json

        rc = main(["sessions", "list", "--spill-dir", str(spill)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-demo" in out and "3 journal deltas" in out

        rc = main(["sessions", "list", "--spill-dir", str(spill), "--json"])
        assert rc == 0
        listed = json.loads(capsys.readouterr().out)
        assert listed[0]["session"] == "cli-demo"
        assert listed[0]["journal_deltas"] == 3

    def test_inspect_reports_recoverable(self, spill, capsys):
        import json

        rc = main(["sessions", "inspect", "cli-demo",
                   "--spill-dir", str(spill)])
        assert rc == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["recoverable"] is True
        assert detail["deltas_applied"] == 3
        assert detail["journal_seqs"] == [0, 1, 2, 3]

    def test_compact_folds_journal_into_checkpoint(self, spill, capsys):
        import json

        rc = main(["sessions", "compact", "cli-demo",
                   "--spill-dir", str(spill)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["compacted"] is True and summary["seq"] == 3
        # The journal is now empty and the state lives in the checkpoint.
        rc = main(["sessions", "list", "--spill-dir", str(spill), "--json"])
        assert rc == 0
        listed = json.loads(capsys.readouterr().out)
        assert listed[0]["checkpoint_verified"] is True
        assert listed[0]["checkpoint_seq"] == 3
        assert listed[0]["journal_deltas"] == 0

    def test_inspect_requires_session_arg(self, capsys):
        assert main(["sessions", "inspect", "--spill-dir", "/tmp/x"]) == 2
        assert "needs a SESSION" in capsys.readouterr().err

    def test_missing_directory(self, tmp_path, capsys):
        rc = main(["sessions", "list", "--spill-dir", str(tmp_path / "no")])
        assert rc == 0
        assert "no durable sessions" in capsys.readouterr().out
        rc = main(["sessions", "inspect", "x",
                   "--spill-dir", str(tmp_path / "no")])
        assert rc == 1

    def test_unknown_session_inspect_fails(self, spill, capsys):
        rc = main(["sessions", "inspect", "nope", "--spill-dir", str(spill)])
        assert rc == 1
