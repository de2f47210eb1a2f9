"""Append-safety tests for the JSONL run log."""

import json

import pytest

from repro.engine.records import RunRecord
from repro.engine.runlog import RunLogWriter, read_run_log


def _record(idx: int) -> RunRecord:
    return RunRecord(
        instance_index=idx,
        instance=f"inst-{idx}",
        shape=(4, 4),
        algorithm="GLL",
        status="ok",
        maxcolor=10 + idx,
        lower_bound=8,
        elapsed=0.01,
        worker="pid-0",
    )


class TestAppendSafety:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as writer:
            for idx in range(3):
                writer.write(_record(idx))
        records = read_run_log(path)
        assert [r.instance_index for r in records] == [0, 1, 2]

    def test_flushed_per_record(self, tmp_path):
        # Every completed write is readable before the writer closes — the
        # crash-safety contract: a killed run leaves a readable prefix.
        path = tmp_path / "run.jsonl"
        writer = RunLogWriter(path).open()
        try:
            writer.write(_record(0))
            writer.write(_record(1))
            assert len(read_run_log(path)) == 2
        finally:
            writer.close()

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as writer:
            writer.write(_record(0))
            writer.write(_record(1))
        # Simulate a writer killed mid-append: a partial JSON line at EOF.
        with path.open("a") as handle:
            handle.write(json.dumps(_record(2).to_json())[:25])
        records = read_run_log(path)
        assert [r.instance_index for r in records] == [0, 1]

    def test_truncated_trailing_line_strict_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as writer:
            writer.write(_record(0))
        with path.open("a") as handle:
            handle.write('{"instance_index": 1, "inst')
        with pytest.raises(ValueError, match="line 2"):
            read_run_log(path, strict=True)

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with path.open("w") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps(_record(0).to_json()) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            read_run_log(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with path.open("w") as handle:
            handle.write(json.dumps(_record(0).to_json()) + "\n\n\n")
            handle.write(json.dumps(_record(1).to_json()) + "\n")
        assert len(read_run_log(path)) == 2

    def test_appending_after_truncation_recovers_new_records(self, tmp_path):
        # A fresh writer appending after a torn line starts on a new line
        # boundary only if the previous write completed; the reader must
        # still surface the clean prefix either way.
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as writer:
            writer.write(_record(0))
        assert len(read_run_log(path)) == 1
        with RunLogWriter(path) as writer:
            writer.write(_record(1))
        assert [r.instance_index for r in read_run_log(path)] == [0, 1]


class TestTornTail:
    """A writer opened on a log with a torn last line cuts the tear first."""

    def _torn(self, path, records):
        with RunLogWriter(path) as writer:
            for idx in records:
                writer.write(_record(idx))
        with path.open("a") as handle:
            handle.write(json.dumps(_record(9).to_json())[:30])

    def test_two_appends_after_a_torn_tail_read_back_strictly(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._torn(path, [0])
        with RunLogWriter(path) as writer:
            writer.write(_record(2))
            writer.write(_record(3))
        assert [r.instance_index for r in read_run_log(path, strict=True)] == [0, 2, 3]

    def test_one_append_after_a_torn_tail_is_kept(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._torn(path, [0, 1])
        with RunLogWriter(path) as writer:
            writer.write(_record(2))
        assert [r.instance_index for r in read_run_log(path, strict=True)] == [0, 1, 2]

    def test_a_log_that_is_all_tear_starts_over(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._torn(path, [])
        with RunLogWriter(path) as writer:
            writer.write(_record(4))
        assert [r.instance_index for r in read_run_log(path, strict=True)] == [4]

    def test_tear_longer_than_one_read_chunk(self, tmp_path, monkeypatch):
        from repro.resilience import durable

        monkeypatch.setattr(durable, "_CHUNK", 7)
        path = tmp_path / "run.jsonl"
        path.write_text("1\n2\n" + "x" * 50)
        durable.append(path, "3")  # the torn tail is cut
        assert path.read_text() == "1\n2\n3\n"
        whole = '"' + "y" * 50 + '"'
        path.write_text("1\n" + whole)
        durable.append(path, "3")  # a whole record gets its newline
        assert path.read_text() == f"1\n{whole}\n3\n"

    def test_run_grid_resumed_onto_its_own_torn_log_twice(self, tmp_path):
        # ``stencil-ivc suite --run-log X --resume``: the log is both the
        # resume source and the append target.
        from repro.engine import run_grid
        from tests.conftest import random_2d_instances

        path = tmp_path / "run.jsonl"
        instances = random_2d_instances(count=3)
        first = run_grid(instances[:2], ["GLL"], jobs=1, log_path=path)
        with path.open("a") as handle:
            handle.write('{"instance_index": 2, "inst')
        for _ in range(2):
            run_grid(instances, ["GLL"], jobs=1, log_path=path, resume_from=path)
        records = read_run_log(path, strict=True)
        assert sorted(r.instance for r in records) == sorted(
            [r.instance for r in first] + [instances[2].name]
        )
