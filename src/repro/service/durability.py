"""Write-ahead journaling and crash recovery for ``recolor`` sessions.

A recolor session is the first piece of server-side state that must outlive
the process that created it: one worker crash in the multi-worker tier used
to destroy every session it held, forcing mid-stream clients into full
mirror re-seeds — exactly the expensive path incremental recoloring exists
to avoid.  This module makes sessions durable under the shared spill
directory so a restarted (or sibling, after router failover) worker can
rebuild them bit-identically before ever answering ``unknown-session``.

Design
------
Per session, two files under ``<spill-dir>/sessions/``:

``<sid>.journal.jsonl``
    An append-safe write-ahead journal, one JSON record per line, exactly
    like the engine run logs: a ``seed`` record (algorithm, shape, full
    weights) followed by ``delta`` records carrying *absolute* new weights
    for the touched cells plus a strictly increasing ``seq``.  Absolute
    weights make every record idempotent: replaying a delta twice, or
    re-appending one after a torn write, converges to the same state.

``<sid>.checkpoint.json``
    Periodic compaction: the full colored grid (weights + starts) as of
    ``seq``, blake2b-fingerprinted and **verified on a read-back copy**
    before :func:`repro.resilience.durable.publish` replaces the old one
    and the journal is truncated — a checkpoint that fails verification
    keeps both the previous checkpoint and the whole journal.

Recovery loads the checkpoint (ignored on fingerprint mismatch), replays
journal deltas with ``seq`` greater than the checkpoint's through the
incremental engine (:func:`~repro.incremental.engine.recolor_grid`, the
same call the live server makes — bit-identity follows from the engine's
proven determinism), skipping and counting damaged lines.  Appends go
through :func:`repro.resilience.durable.append`, which heals the tail with
the reader's rule (a whole last record gets its newline, a torn one is
cut), so a client's re-send after a failed append lands as a clean record.

Fault sites (see :mod:`repro.resilience.faults`): ``durability.journal.
append`` (``torn`` tears the record mid-line and raises, ``error`` fails
before writing) and ``durability.checkpoint.write`` (``corrupt`` damages
the snapshot so verification rejects it, ``stale`` skips compaction
entirely — the journal simply keeps growing).

Multiple workers may append to one session's journal across a failover
window: the append lock keeps one worker's heal from cutting a sibling's
in-flight record, replay's seq ordering drops duplicates, and rendezvous
routing converges traffic back to a single owner.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.resilience import durable
from repro.resilience.faults import draw
from repro.runtime.config import DurabilityConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.metrics import MetricsRegistry
    from repro.service.sessions import RecolorSession

__all__ = [
    "SessionDurability",
    "RecoveredSession",
    "session_stem",
]

#: dtype every journaled/checkpointed array is normalized to (the service
#: wire dtype — see ``frames.PAYLOAD_DTYPE``).
_DTYPE = np.int64


def session_stem(session_id: str) -> str:
    """The filesystem stem for a session id (ids are client-chosen text)."""
    return hashlib.blake2b(session_id.encode(), digest_size=16).hexdigest()


def _fingerprint(weights: np.ndarray, starts: np.ndarray) -> str:
    """A blake2b fingerprint binding a checkpoint's weights, starts, shape."""
    h = hashlib.blake2b(digest_size=20)
    h.update(repr(tuple(weights.shape)).encode())
    h.update(np.ascontiguousarray(weights, dtype=_DTYPE).tobytes())
    h.update(np.ascontiguousarray(starts, dtype=_DTYPE).tobytes())
    return h.hexdigest()


@dataclass
class RecoveredSession:
    """A session rebuilt from its checkpoint + journal, ready to re-open."""

    session_id: str
    algorithm: str
    weights: np.ndarray
    starts: np.ndarray
    maxcolor: int
    deltas_applied: int
    source: str = "journal"  # "checkpoint" when no deltas replayed on top


class SessionDurability:
    """Per-session WAL + checkpoint store under one directory.

    Thread-safety: the server serializes all recolor mutations behind one
    lock, so this class does per-call open/append/close with no shared
    handles — which also makes every append land on the file a concurrent
    sibling (failover window) or an offline ``stencil-ivc sessions``
    invocation sees.
    """

    def __init__(
        self,
        root: Path,
        config: Optional[DurabilityConfig] = None,
        *,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.root = Path(root)
        self.config = config or DurabilityConfig()
        self.metrics = metrics
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- paths
    def journal_path(self, session_id: str) -> Path:
        return self.root / f"{session_stem(session_id)}.journal.jsonl"

    def checkpoint_path(self, session_id: str) -> Path:
        return self.root / f"{session_stem(session_id)}.checkpoint.json"

    # ----------------------------------------------------------- metrics
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, seconds: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(seconds)

    # ----------------------------------------------------------- appends
    def _append(self, path: Path, record: dict, token: str) -> None:
        """Append one JSON record; a ``torn`` or ``error`` fault raises, so
        the delta is *not* acknowledged and the client re-sends it."""
        line = json.dumps(record, separators=(",", ":"))
        try:
            durable.append(path, line, fsync=self.config.fsync == "always",
                           site="durability.journal.append", token=token)
        except durable.TornWrite:
            self._count("journal_records")
            self._count("journal_torn_appends")
            raise
        self._count("journal_records")

    # ------------------------------------------------------- WAL surface
    def record_seed(self, session: "RecolorSession") -> None:
        """Start a fresh journal epoch for ``session`` (re-seeds reset it).

        A re-seed replaces the session's entire state, so the previous
        checkpoint and journal are dropped first — replay must never mix
        records across seed epochs.
        """
        self.checkpoint_path(session.session_id).unlink(missing_ok=True)
        journal = self.journal_path(session.session_id)
        with journal.open("wb"):
            pass  # truncate: new epoch
        record = {
            "t": "seed",
            "session": session.session_id,
            "algorithm": session.algorithm,
            "shape": [int(s) for s in session.weights.shape],
            "weights": [int(w) for w in session.weights.ravel()],
            "seq": 0,
        }
        self._append(journal, record, f"{session.session_id}#seed")

    def record_delta(
        self,
        session_id: str,
        seq: int,
        idx: np.ndarray,
        new_weights: np.ndarray,
    ) -> None:
        """Journal one applied delta (absolute weights — idempotent).

        Called *before* the in-memory commit and before the delta is
        acknowledged: a failed append raises, the server answers ``error``,
        and the re-sent delta journals again under the same ``seq``.
        """
        record = {
            "t": "delta",
            "seq": int(seq),
            "idx": [int(i) for i in np.asarray(idx).ravel()],
            "weights": [int(w) for w in np.asarray(new_weights).ravel()],
        }
        self._append(
            self.journal_path(session_id), record, f"{session_id}#{seq}"
        )

    def maybe_checkpoint(self, session: "RecolorSession") -> bool:
        """Compact the journal into a checkpoint when the interval is due."""
        interval = self.config.checkpoint_interval
        if interval <= 0 or session.deltas_applied <= 0:
            return False
        if session.deltas_applied % interval != 0:
            return False
        return self.write_checkpoint(session)

    def write_checkpoint(self, session: "RecolorSession") -> bool:
        """Snapshot ``session``; truncate the journal only after verifying.

        Ordering is the whole point: temp write → read back → fingerprint
        check → atomic publish → journal truncate.  Any failure before the
        publish leaves the previous checkpoint *and* the full journal in
        place, so acknowledged deltas always remain recoverable.
        """
        t0 = time.perf_counter()
        seq = int(session.deltas_applied)
        token = f"{session.session_id}#{seq}"
        fault = draw("durability.checkpoint.write", token)
        if fault is not None and fault.kind == "stale":
            self._count("checkpoint_skipped_stale")
            return False
        weights = np.ascontiguousarray(session.weights, dtype=_DTYPE)
        starts = np.ascontiguousarray(session.starts, dtype=_DTYPE)
        snapshot = {
            "session": session.session_id,
            "algorithm": session.algorithm,
            "shape": [int(s) for s in weights.shape],
            "seq": seq,
            "maxcolor": int(session.maxcolor),
            # int64 ``tolist`` gives the same Python ints, ~10x faster.
            "weights": weights.ravel().tolist(),
            "starts": starts.ravel().tolist(),
            "fingerprint": _fingerprint(weights, starts),
        }
        payload = json.dumps(snapshot, separators=(",", ":"))
        if fault is not None and fault.kind == "corrupt":
            payload = payload[: max(1, len(payload) // 2)]
        try:
            published = durable.publish(
                self.checkpoint_path(session.session_id), payload,
                lambda tmp: self._load_checkpoint_file(tmp) is not None,
                fsync=self.config.fsync in ("checkpoint", "always"))
        except OSError:
            self._count("checkpoint_write_errors")
            return False
        if not published:
            self._count("checkpoint_verify_failures")
            return False
        # Published and verified: acknowledged state ≤ seq now lives in the
        # checkpoint, so the journal can restart empty.  (A crash landing
        # between the publish and this truncate is benign — replay skips
        # journal records with seq ≤ the checkpoint's.)
        with self.journal_path(session.session_id).open("wb"):
            pass
        self._count("checkpoints_written")
        self._observe("checkpoint_write_seconds", time.perf_counter() - t0)
        return True

    def forget(self, session_id: str) -> None:
        """Drop every durable trace of ``session_id`` (explicit drops)."""
        for path in (
            self.journal_path(session_id),
            self.checkpoint_path(session_id),
        ):
            path.unlink(missing_ok=True)

    # ---------------------------------------------------------- recovery
    def _load_checkpoint_file(self, path: Path) -> Optional[dict]:
        """Parse + fingerprint-verify one checkpoint file (None on damage)."""
        try:
            snapshot = json.loads(path.read_text())
            shape = tuple(int(s) for s in snapshot["shape"])
            weights = np.asarray(snapshot["weights"], dtype=_DTYPE).reshape(
                shape
            )
            starts = np.asarray(snapshot["starts"], dtype=_DTYPE).reshape(
                shape
            )
        except (OSError, ValueError, KeyError, TypeError) as _:
            return None
        if _fingerprint(weights, starts) != snapshot.get("fingerprint"):
            return None
        snapshot["weights"] = weights
        snapshot["starts"] = starts
        return snapshot

    def _read_journal(self, path: Path) -> tuple[list[dict], int]:
        """The journal's seed and delta records in file order, and how many
        damaged lines (torn tail included) or unknown records it skipped."""
        lines = durable.read(path)
        records = [
            r for r in lines.records
            if isinstance(r, dict) and r.get("t") in ("seed", "delta")
        ]
        skipped = len(lines.damaged) + (lines.torn is not None)
        return records, skipped + len(lines.records) - len(records)

    def recover(self, session_id: str) -> Optional[RecoveredSession]:
        """Rebuild ``session_id`` from its checkpoint + journal, or ``None``.

        Bit-identity with the lost in-memory session follows from replaying
        the *same* engine calls the live server made: ``full_recolor`` of
        the seed weights, then ``recolor_grid`` per delta in seq order.
        Duplicate records (idempotent re-sends, pre-truncate checkpoints)
        are skipped by their seq; a seq gap stops replay at the last
        causally complete state.
        """
        from repro.incremental.engine import full_recolor, recolor_grid

        checkpoint = self._load_checkpoint_file(
            self.checkpoint_path(session_id)
        )
        if checkpoint is None and self.checkpoint_path(session_id).exists():
            self._count("checkpoint_verify_failures")
        records, skipped = self._read_journal(self.journal_path(session_id))
        if skipped:
            self._count("journal_skipped_records", skipped)

        weights: Optional[np.ndarray] = None
        starts: Optional[np.ndarray] = None
        algorithm = ""
        maxcolor = 0
        seq = 0
        if checkpoint is not None:
            weights = checkpoint["weights"]
            starts = checkpoint["starts"]
            algorithm = str(checkpoint["algorithm"])
            maxcolor = int(checkpoint["maxcolor"])
            seq = int(checkpoint["seq"])
        replayed = 0
        for record in records:
            if record["t"] == "seed":
                if checkpoint is not None:
                    # A verified checkpoint always postdates the epoch's
                    # seed record (the journal restarts empty afterwards);
                    # a stray seed here would be a pre-truncate leftover.
                    continue
                try:
                    shape = tuple(int(s) for s in record["shape"])
                    weights = np.asarray(
                        record["weights"], dtype=_DTYPE
                    ).reshape(shape)
                    algorithm = str(record["algorithm"])
                except (KeyError, ValueError, TypeError):
                    self._count("journal_skipped_records")
                    continue
                starts = full_recolor(weights, algorithm)
                maxcolor = (
                    int((starts + weights).max()) if weights.size else 0
                )
                seq = 0
                continue
            if weights is None or starts is None:
                # Deltas before any usable seed/checkpoint: unrecoverable
                # prefix (e.g. damaged seed record) — skip.
                self._count("journal_skipped_records")
                continue
            try:
                rec_seq = int(record["seq"])
                idx = np.asarray(record["idx"], dtype=np.int64)
                vals = np.asarray(record["weights"], dtype=_DTYPE)
            except (KeyError, ValueError, TypeError):
                self._count("journal_skipped_records")
                continue
            if rec_seq <= seq:
                continue  # duplicate (idempotent re-send / pre-truncate)
            if rec_seq != seq + 1:
                self._count("journal_seq_gaps")
                break  # causal gap: stop at the last complete state
            if idx.size and (
                int(idx.min()) < 0 or int(idx.max()) >= weights.size
            ):
                self._count("journal_skipped_records")
                break
            new_weights = weights.copy()
            new_weights.ravel()[idx] = vals
            outcome = recolor_grid(
                new_weights, starts, idx, algorithm=algorithm
            )
            weights = new_weights
            starts = outcome.starts
            maxcolor = int(outcome.maxcolor)
            seq = rec_seq
            replayed += 1
        if weights is None or starts is None or not algorithm:
            self._count("recovery_failures")
            return None
        return RecoveredSession(
            session_id=session_id,
            algorithm=algorithm,
            weights=weights,
            starts=starts,
            maxcolor=maxcolor,
            deltas_applied=seq,
            source="journal" if replayed else "checkpoint",
        )

    # ------------------------------------------------- offline inspection
    def list_sessions(self) -> list[dict]:
        """Summaries of every session with durable state under ``root``.

        Offline-safe: reads only, never mutates — the ``stencil-ivc
        sessions list`` view of a (possibly live) spill directory.
        """
        stems: dict[str, dict] = {}
        for path in sorted(self.root.glob("*.journal.jsonl")):
            stems.setdefault(path.name.split(".")[0], {})["journal"] = path
        for path in sorted(self.root.glob("*.checkpoint.json")):
            stems.setdefault(path.name.split(".")[0], {})["checkpoint"] = path
        summaries = []
        for stem, paths in sorted(stems.items()):
            summary: dict = {"stem": stem, "session": None}
            journal = paths.get("journal")
            if journal is not None:
                records, skipped = self._read_journal(journal)
                seeds = [r for r in records if r["t"] == "seed"]
                deltas = [r for r in records if r["t"] == "delta"]
                summary.update(
                    journal_bytes=journal.stat().st_size,
                    journal_records=len(records),
                    journal_deltas=len(deltas),
                    journal_skipped=skipped,
                )
                if seeds:
                    summary["session"] = seeds[-1].get("session")
                    summary["algorithm"] = seeds[-1].get("algorithm")
                    summary["shape"] = seeds[-1].get("shape")
            ck_path = paths.get("checkpoint")
            if ck_path is not None:
                checkpoint = self._load_checkpoint_file(ck_path)
                summary["checkpoint_bytes"] = ck_path.stat().st_size
                if checkpoint is not None:
                    summary.update(
                        checkpoint_seq=int(checkpoint["seq"]),
                        checkpoint_verified=True,
                        session=checkpoint["session"],
                        algorithm=checkpoint["algorithm"],
                        shape=[int(s) for s in checkpoint["shape"]],
                    )
                else:
                    summary["checkpoint_verified"] = False
            summaries.append(summary)
        return summaries

    def inspect(self, session_id: str) -> dict:
        """A deep, offline view of one session's durable state."""
        detail: dict = {
            "session": session_id,
            "stem": session_stem(session_id),
            "journal": str(self.journal_path(session_id)),
            "checkpoint": str(self.checkpoint_path(session_id)),
        }
        records, skipped = self._read_journal(self.journal_path(session_id))
        detail["journal_records"] = len(records)
        detail["journal_skipped"] = skipped
        detail["journal_seqs"] = [
            int(r["seq"]) for r in records if "seq" in r
        ]
        checkpoint = self._load_checkpoint_file(
            self.checkpoint_path(session_id)
        )
        if checkpoint is not None:
            detail["checkpoint_seq"] = int(checkpoint["seq"])
            detail["checkpoint_maxcolor"] = int(checkpoint["maxcolor"])
            detail["checkpoint_verified"] = True
        elif self.checkpoint_path(session_id).exists():
            detail["checkpoint_verified"] = False
        recovered = self.recover(session_id)
        detail["recoverable"] = recovered is not None
        if recovered is not None:
            detail.update(
                algorithm=recovered.algorithm,
                shape=[int(s) for s in recovered.weights.shape],
                deltas_applied=recovered.deltas_applied,
                maxcolor=recovered.maxcolor,
                fingerprint=_fingerprint(
                    recovered.weights, recovered.starts
                ),
            )
        return detail

    def compact(self, session_id: str) -> Optional[dict]:
        """Offline compaction: recover, checkpoint, truncate — or ``None``.

        The maintenance half of ``stencil-ivc sessions``: folds a long
        journal into one verified checkpoint without a running server.
        """
        recovered = self.recover(session_id)
        if recovered is None:
            return None
        # Reuse the verified-checkpoint path; a RecoveredSession satisfies
        # the RecolorSession attribute surface write_checkpoint reads.
        ok = self.write_checkpoint(recovered)  # type: ignore[arg-type]
        return {
            "session": session_id,
            "compacted": bool(ok),
            "seq": recovered.deltas_applied,
            "journal_bytes": self.journal_path(session_id).stat().st_size
            if self.journal_path(session_id).exists()
            else 0,
        }

    def stats(self) -> dict:
        """Cheap directory-level stats for ``/metrics`` embedding."""
        journals = list(self.root.glob("*.journal.jsonl"))
        checkpoints = list(self.root.glob("*.checkpoint.json"))
        return {
            "root": str(self.root),
            "journals": len(journals),
            "checkpoints": len(checkpoints),
            "journal_bytes": sum(p.stat().st_size for p in journals),
            "checkpoint_bytes": sum(p.stat().st_size for p in checkpoints),
            "fsync": self.config.fsync,
            "checkpoint_interval": self.config.checkpoint_interval,
        }
