"""The durable-record layer: one heal rule shared by append and read."""

from __future__ import annotations

import fcntl
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.records import RunRecord
from repro.engine.runlog import RunLogWriter, read_run_log
from repro.resilience import durable
from repro.resilience.faults import InjectedFault, clear_plan, install_plan, parse_fault_spec
from repro.runtime.config import DurabilityConfig
from repro.service.durability import SessionDurability
from repro.service.sessions import RecolorSession
from repro.tiling import TileRecord, color_tiled


def _run_record(idx: int) -> RunRecord:
    return RunRecord(
        instance_index=idx, instance=f"inst-{idx}", shape=(4, 4), algorithm="GLL",
        status="ok", maxcolor=10 + idx, lower_bound=8, elapsed=0.01, worker="pid-0",
    )


class TestHealRule:
    @pytest.mark.parametrize("tail,healed", [
        ("", "1\n"),                # clean file
        ("2", "1\n2\n"),            # a whole record missing its newline
        ('{"a": [1, 2', "1\n"),     # a torn record is cut
        ("   ", "1\n"),             # whitespace is no record
    ])
    def test_append_heals_the_tail(self, tmp_path, tail, healed):
        path = tmp_path / "log.jsonl"
        path.write_text("1\n" + tail)
        before = durable.read(path).records
        durable.append(path, "3")
        assert path.read_text() == healed + "3\n"
        assert durable.read(path) == (before + [3], [], None)

    def test_read_reports_damage_and_the_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('1\nnot json\n\n2\n{"torn')
        assert durable.read(path) == ([1, 2], [2], 5)
        assert durable.read(tmp_path / "missing.jsonl") == ([], [], None)

    def test_append_waits_for_a_sibling_in_flight(self, tmp_path):
        # A sibling holding the lock mid-record must not be cut as torn.
        path = tmp_path / "journal.jsonl"
        path.write_text("0\n")
        with open(path, "ab") as sibling:
            fcntl.flock(sibling, fcntl.LOCK_EX)
            sibling.write(b'{"seq": ')
            sibling.flush()
            appender = threading.Thread(target=durable.append, args=(path, "2"))
            appender.start()
            time.sleep(0.05)
            sibling.write(b"1}\n")
            sibling.flush()
            fcntl.flock(sibling, fcntl.LOCK_UN)
        appender.join(timeout=10)
        assert not appender.is_alive()
        assert durable.read(path) == ([0, {"seq": 1}, 2], [], None)

    @pytest.mark.parametrize("kind", ["torn", "error"])
    def test_fault_site(self, tmp_path, kind):
        path = tmp_path / "log.jsonl"
        path.write_text("1\n")
        install_plan(parse_fault_spec(f"site.x:{kind}=1.0,max=1"))
        try:
            with pytest.raises(InjectedFault) as excinfo:
                durable.append(path, "[2, 2]", site="site.x", token="t")
        finally:
            clear_plan()
        assert isinstance(excinfo.value, durable.TornWrite) == (kind == "torn")
        assert path.read_text() == ("1\n[2," if kind == "torn" else "1\n")
        durable.append(path, "3", site="site.x", token="t")
        assert durable.read(path) == ([1, 3], [], None)


class TestPublish:
    def test_publish_replaces_only_a_verified_copy(self, tmp_path):
        final = tmp_path / "doc.json"
        final.write_text("old")
        assert not durable.publish(final, "new", lambda tmp: False)
        assert final.read_text() == "old"
        assert durable.publish(final, b"new", lambda tmp: tmp.read_bytes() == b"new")
        assert final.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_a_failing_verify_leaves_no_temp_file(self, tmp_path):
        def boom(tmp):
            raise OSError("disk gone")

        with pytest.raises(OSError):
            durable.publish(tmp_path / "doc.json", "new", boom)
        assert list(tmp_path.iterdir()) == []


# --- reader/writer agreement, cut at any byte --------------------------------

def _run_log(root):
    path = root / "run.jsonl"
    with RunLogWriter(path) as writer:
        for idx in range(3):
            writer.write(_run_record(idx))
    return path.read_bytes()


def _tile_log(root):
    weights = np.random.default_rng(3).integers(1, 20, size=(6, 6), dtype=np.int64)
    color_tiled(weights, tile_shape=(3, 3), log_path=root / "tiles.jsonl", assemble=False)
    return (root / "tiles.jsonl").read_bytes()


def _journal(root):
    store = SessionDurability(root, DurabilityConfig(checkpoint_interval=0))
    weights = np.arange(1, 17, dtype=np.int64).reshape(4, 4)
    store.record_seed(RecolorSession(
        session_id="p", algorithm="GLL", weights=weights, starts=weights * 0,
        maxcolor=0, created=0.0, touched=0.0,
    ))
    for seq in range(1, 4):
        store.record_delta("p", seq, np.asarray([seq]), np.asarray([seq + 20]))
    return store.journal_path("p").read_bytes()


@pytest.fixture(scope="module")
def boundaries(tmp_path_factory):
    """(bytes, read, append one record, that record as read) per boundary."""
    root = tmp_path_factory.mktemp("agreement")
    store = SessionDurability(root / "j", DurabilityConfig(checkpoint_interval=0))
    tile = TileRecord(pos=9, index=(9, 9), maxcolor=1, digest="d")
    return {
        "run": (
            _run_log(root),
            lambda path: [r.to_json() for r in read_run_log(path)],
            lambda path: RunLogWriter(path).write(_run_record(7)),
            _run_record(7).to_json(),
        ),
        "tile": (
            _tile_log(root),
            lambda path: durable.read(path).records,
            lambda path: durable.append(path, tile.to_json()),  # TileLogWriter.write
            json.loads(tile.to_json()),
        ),
        "journal": (
            _journal(root / "j"),
            lambda path: store._read_journal(path)[0],
            lambda path: store.record_delta("p", 4, np.asarray([0]), np.asarray([5])),
            {"t": "delta", "seq": 4, "idx": [0], "weights": [5]},
        ),
    }, store


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cut_read_append_read(boundaries, data):
    """Cut a log anywhere, read, append one record: the new read is the old
    read plus that record — an append never drops a line a read returned."""
    table, store = boundaries
    kind = data.draw(st.sampled_from(sorted(table)), label="boundary")
    raw, read, append_one, record = table[kind]
    cut = data.draw(st.integers(0, len(raw)), label="cut")
    path = store.journal_path("p") if kind == "journal" else store.root / f"{kind}.jsonl"
    path.write_bytes(raw[:cut])
    before = read(path)
    append_one(path)
    after = read(path)
    assert after == before + [record]
    assert durable.read(path).damaged == []
    json.loads(path.read_bytes().splitlines()[-1])
