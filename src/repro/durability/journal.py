"""Write-ahead journal for the serving tier: one sqlite3 table in WAL mode.

``<directory>/journal.db`` holds ``pending(seq INTEGER PRIMARY KEY
AUTOINCREMENT, payload BLOB, crc INTEGER)``, one row per admission still
owed a terminal: the pickled ``(item, spec, deadline)`` and its CRC-32,
checked on replay.  sqlite makes each commit atomic and ignores a torn
WAL tail on reopen.  ``"always"`` commits every append with
``synchronous=FULL``; ``"batch"`` commits at :meth:`Journal.flush` (the
service flushes at micro-batch boundaries) with ``synchronous=FULL``;
``"none"`` commits there with ``synchronous=OFF``.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

#: Legal fsync policies, weakest to strongest guarantee.
FSYNC_POLICIES = ("none", "batch", "always")

#: Pickle protocol pinned so journals written by newer interpreters stay
#: readable by the oldest supported one.
_PICKLE_PROTOCOL = 4

#: Buffered rows that force an early write: no statement binds 999 values.
_MAX_BUFFERED = 256


class JournalCorrupt(RuntimeError):
    """A journal this code cannot replay: a bad CRC or a foreign format."""


@dataclass(frozen=True)
class AdmittedEntry:
    """One admitted-but-unresolved request recovered from the journal."""

    seq: int
    item: object
    spec: object  # the LabelingSpec it was admitted under
    deadline: float | None  # ignored on replay: acknowledged work completes


@dataclass(frozen=True)
class JournalStats:
    """Counters for the ``repro_journal_*`` metric families."""

    admitted: int  # admissions journaled by this process
    terminals: dict  # terminals journaled by this process, by status
    bytes_written: int  # admission payload bytes journaled by this process
    fsyncs: int  # one per batch flush that wrote, one per always append
    pending: int  # admissions without a terminal (the replay backlog)
    replayed: int  # pending rows found when the journal was opened


class Journal:
    """Pending admissions in one sqlite3 table; ``fsync`` names a policy.

    One lock guards one connection, opened before the process backend's
    pool forks; forked children exit through ``os._exit`` without using it.
    """

    FILENAME = "journal.db"

    def __init__(self, directory: str | Path, *, fsync: str = "batch"):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        legacy = [*self.directory.glob("checkpoint.json")]
        legacy += sorted(self.directory.glob("segment-*.wal"))
        if legacy:  # its admissions would be silently dropped
            names = ", ".join(p.name for p in legacy)
            raise JournalCorrupt(f"{self.directory} holds the segment format: {names}")
        self.fsync_policy = fsync
        self._lock = threading.Lock()
        self.path = self.directory / self.FILENAME
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        self._db.execute(f"PRAGMA synchronous={'OFF' if fsync == 'none' else 'FULL'}")
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS pending (seq INTEGER PRIMARY KEY "
            "AUTOINCREMENT, payload BLOB NOT NULL, crc INTEGER NOT NULL)"
        )
        last = self._db.execute("SELECT seq FROM sqlite_sequence").fetchone()
        self._next_seq = (last[0] if last else 0) + 1
        self._pending = {seq for (seq,) in self._db.execute("SELECT seq FROM pending")}
        self._replayed = len(self._pending)
        # Appends not yet written: seq -> (payload, crc), and rows to delete.
        self._inserts: dict[int, tuple[bytes, int]] = {}
        self._deletes: list[int] = []
        self._admitted = self._bytes = self._fsyncs = 0
        self._terminals: dict[str, int] = {}
        self._closed = False

    def _appended_locked(self) -> None:
        """Commit under ``always``, else buffer: every sqlite call drops the
        GIL, and retaking it can wait a switch interval behind busy threads."""
        if self.fsync_policy == "always":
            self._commit_locked()
        elif len(self._inserts) + len(self._deletes) >= _MAX_BUFFERED:
            self._write_locked()

    def _write_locked(self) -> None:
        if self._inserts:
            rows = ", ".join(["(?, ?, ?)"] * len(self._inserts))
            values = [v for seq, row in self._inserts.items() for v in (seq, *row)]
            self._db.execute(f"INSERT INTO pending VALUES {rows}", values)
            self._inserts.clear()
        if self._deletes:
            marks = ", ".join("?" * len(self._deletes))
            sql = f"DELETE FROM pending WHERE seq IN ({marks})"
            self._db.execute(sql, self._deletes)
            self._deletes.clear()

    def _commit_locked(self) -> None:
        self._write_locked()
        if self._db.in_transaction:
            self._db.commit()
            if self.fsync_policy != "none":
                self._fsyncs += 1

    def log_admission(self, item, spec, deadline: float | None = None) -> int:
        """Journal an admitted item before it can settle; returns its seq."""
        payload = pickle.dumps((item, spec, deadline), _PICKLE_PROTOCOL)
        with self._lock:
            if self._closed:
                raise ValueError("journal is closed")
            seq = self._next_seq
            self._next_seq += 1
            self._inserts[seq] = (payload, zlib.crc32(payload))
            self._pending.add(seq)
            self._admitted += 1
            self._bytes += len(payload)
            self._appended_locked()
            return seq

    def log_terminal(self, seq: int, status: str) -> None:
        """Delete admission ``seq``'s row; ``status`` is only counted."""
        with self._lock:
            if self._closed:
                raise ValueError("journal is closed")
            self._terminals[status] = self._terminals.get(status, 0) + 1
            if seq in self._pending:
                self._pending.remove(seq)
                if self._inserts.pop(seq, None) is None:  # its row is written
                    self._deletes.append(seq)
                    self._appended_locked()

    def flush(self) -> None:
        """Write and commit what was journaled since the last flush."""
        with self._lock:
            if not self._closed:
                self._commit_locked()

    def close(self) -> None:
        """Commit and close the connection (idempotent)."""
        with self._lock:
            if not self._closed:
                self._commit_locked()
                self._db.close()
                self._closed = True

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def pending_entries(self) -> list[AdmittedEntry]:
        """Decoded admissions lacking a terminal, in admission order."""
        with self._lock:
            self._write_locked()
            rows = self._db.execute(
                "SELECT seq, payload, crc FROM pending ORDER BY seq"
            ).fetchall()
        for seq, payload, crc in rows:
            if zlib.crc32(payload) != crc:
                raise JournalCorrupt(f"{self.path}: admission {seq} fails its CRC")
        return [AdmittedEntry(seq, *pickle.loads(payload)) for seq, payload, _ in rows]

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def stats(self) -> JournalStats:
        with self._lock:
            return JournalStats(
                admitted=self._admitted, terminals=dict(self._terminals),
                bytes_written=self._bytes, fsyncs=self._fsyncs,
                pending=len(self._pending), replayed=self._replayed,
            )
