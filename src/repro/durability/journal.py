"""Append-only write-ahead journal for the serving tier.

The paper's guarantee is *comprehensive* labeling — every admitted item
gets its labels — but an in-memory serving tier forgets every admitted,
unfinished request the instant the process dies.  :class:`Journal` makes
admission durable: the service appends an **admission record** before a
submission's future can settle and a **terminal record** when it resolves
(completed / expired / rejected / cancelled / failed).  After a crash,
``admitted − terminal`` is exactly the work the process owes, and
:meth:`LabelingService.recover <repro.serving.service.LabelingService.recover>`
replays it through the single-flight result cache — scheduling is
deterministic over recorded truth, so a replayed request re-executes with
an identical result trace.

On-disk format (stdlib only, no dependencies):

* A journal is a **directory** of numbered segments
  (``segment-00000001.wal``, …) plus the checkpoint file maintained by
  :class:`~repro.durability.checkpoint.CheckpointStore`.
* Each record is one length-prefixed binary frame::

      [u32 body length][u32 CRC-32 of body][body]
      body = [u8 kind][u64 seq][payload bytes]

  ``seq`` is monotonically increasing across restarts and segments, so a
  terminal can reference an admission in an earlier segment and replay
  order is total.
* **Torn-tail tolerance** — a crash mid-append leaves a short or
  CRC-broken frame at the very end of the newest data.  Replay detects
  it, truncates the segment back to the last good frame, and counts it
  in :meth:`stats`; the same damage anywhere *other* than the tail is
  real corruption and raises :class:`JournalCorrupt`.
* **fsync policy** — ``"always"`` fsyncs after every append (an
  acknowledged admission survives power loss), ``"batch"`` fsyncs on
  :meth:`flush` which the service calls at micro-batch boundaries
  (bounded loss window, near-zero overhead — the benchmark gate),
  ``"none"`` leaves syncing to the OS.
* **Rotation + compaction** — appends roll to a new segment past
  ``segment_bytes``.  :meth:`checkpoint` snapshots ``(max seq, pending
  payloads)`` atomically, after which every segment whose records all
  precede the watermark carries no information the checkpoint doesn't —
  :meth:`compact` deletes them, so a long-lived journal's disk use and
  replay time are bounded by the live window, not by history.

Payloads are opaque bytes at this layer.  The admission/terminal helpers
(:meth:`log_admission` / :meth:`log_terminal`) pickle ``(item, spec,
deadline)`` tuples — journal and service share a codebase by
construction, and the frames are CRC-guarded.
"""

from __future__ import annotations

import io
import logging
import os
import pickle
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.durability.checkpoint import CheckpointStore

__all__ = [
    "AdmittedEntry",
    "FSYNC_POLICIES",
    "Journal",
    "JournalCorrupt",
    "JournalStats",
]

logger = logging.getLogger("repro.durability.journal")

#: Legal fsync policies, weakest to strongest guarantee.
FSYNC_POLICIES = ("none", "batch", "always")

_LENGTH = struct.Struct("!II")  # body length, crc32(body)
_BODY_HEAD = struct.Struct("!BQ")  # kind, seq
_ADMIT_REF = struct.Struct("!Q")  # terminal payload: the admission's seq
_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".wal"

#: Pickle protocol pinned so journals written by newer interpreters stay
#: readable by the oldest supported one.
_PICKLE_PROTOCOL = 4

#: Write-buffer size for the active segment.  Records are a few hundred
#: bytes; the default 8 KiB buffer turns roughly every dozenth append
#: into a write(2) on the hot path.  Durability never depends on the
#: buffer — flush()/fsync drain it at every policy boundary.
_WRITE_BUFFER = 256 << 10


class JournalCorrupt(RuntimeError):
    """A frame failed its CRC (or framing) somewhere other than the tail."""


@dataclass(frozen=True)
class AdmittedEntry:
    """One admitted-but-unresolved request recovered from the journal."""

    #: The admission record's journal sequence number.
    seq: int
    #: The submitted item, exactly as admitted.
    item: object
    #: The :class:`~repro.spec.LabelingSpec` it was admitted under.
    spec: object
    #: The admission deadline the original submit carried (seconds; replay
    #: ignores it — acknowledged work is completed, not re-expired).
    deadline: float | None


@dataclass(frozen=True)
class JournalStats:
    """Counters for the ``repro_journal_*`` metric families."""

    #: Admission records appended by this process.
    admitted: int
    #: Terminal records appended by this process, by status.
    terminals: dict
    #: Bytes appended by this process.
    bytes_written: int
    #: fsync calls issued.
    fsyncs: int
    #: Admissions currently without a terminal (replayable backlog).
    pending: int
    #: Live segment files on disk.
    segments: int
    #: Checkpoints written.
    checkpoints: int
    #: Segments deleted by compaction.
    compacted: int
    #: Torn tail frames truncated during replay (crash evidence).
    torn_tails: int
    #: Records found on disk when the journal was opened.
    replayed: int


class Journal:
    """Append-only, CRC-guarded, segmented write-ahead journal.

    Opening a directory that already holds a journal **replays** it:
    the checkpoint is loaded, every segment past the watermark is
    scanned (tolerating a torn tail), and the pending admission set and
    next sequence number are rebuilt.  Thread-safe; every append is one
    short critical section.

    Parameters
    ----------
    directory:
        The journal directory (created if missing).
    fsync:
        One of :data:`FSYNC_POLICIES`; see the module docstring.
    segment_bytes:
        Rotate to a fresh segment once the current one exceeds this.
    checkpoint_every:
        Auto-checkpoint (and compact) after this many terminal records;
        ``0``/``None`` leaves checkpointing fully manual.
    """

    #: Record kinds.
    KIND_ADMIT = 1
    KIND_TERMINAL = 2

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "batch",
        segment_bytes: int = 4 << 20,
        checkpoint_every: int | None = 1024,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes < 256:
            raise ValueError("segment_bytes must be >= 256")
        if checkpoint_every is not None and checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self.checkpoint_every = checkpoint_every or 0
        self._lock = threading.RLock()
        self._store = CheckpointStore(self.directory)
        self._admitted = 0
        self._terminals: dict[str, int] = {}
        self._bytes = 0
        self._fsyncs = 0
        self._checkpoints = 0
        self._compacted = 0
        self._torn = 0
        self._since_checkpoint = 0
        self._dirty = False
        self._closed = False
        #: seq -> raw admission payload, admissions lacking a terminal.
        self._pending: dict[int, bytes] = {}
        self._replayed = 0
        self._replay()

    # -- framing -------------------------------------------------------------

    @staticmethod
    def _frame(kind: int, seq: int, payload: bytes) -> bytes:
        body = _BODY_HEAD.pack(kind, seq) + payload
        return _LENGTH.pack(len(body), zlib.crc32(body)) + body

    @classmethod
    def _scan(cls, data: bytes, path: Path):
        """Yield ``(offset, kind, seq, payload)`` frames; returns clean size.

        A short or CRC-broken frame that runs to the end of ``data`` is a
        torn tail: scanning stops and the offset of the bad frame is the
        clean length.  The same damage followed by *more* bytes means the
        middle of the journal is gone — that is unrecoverable corruption.
        """
        offset = 0
        total = len(data)
        frames = []
        while offset < total:
            header_end = offset + _LENGTH.size
            if header_end > total:
                return frames, offset, True
            length, crc = _LENGTH.unpack_from(data, offset)
            body_end = header_end + length
            if length < _BODY_HEAD.size:
                raise JournalCorrupt(
                    f"{path.name}: frame at byte {offset} shorter than a "
                    f"record header"
                )
            if body_end > total:
                return frames, offset, True
            body = data[header_end:body_end]
            if zlib.crc32(body) != crc:
                if body_end == total:
                    return frames, offset, True
                raise JournalCorrupt(
                    f"{path.name}: CRC mismatch at byte {offset} with "
                    f"{total - body_end} byte(s) following — journal body "
                    f"corrupted (not a torn tail)"
                )
            kind, seq = _BODY_HEAD.unpack_from(body, 0)
            frames.append((offset, kind, seq, body[_BODY_HEAD.size :]))
            offset = body_end
        return frames, offset, False

    # -- replay --------------------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(
            p
            for p in self.directory.iterdir()
            if p.name.startswith(_SEGMENT_PREFIX)
            and p.name.endswith(_SEGMENT_SUFFIX)
        )

    @staticmethod
    def _segment_index(path: Path) -> int:
        return int(path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])

    def _replay(self) -> None:
        checkpoint = self._store.load()
        self._pending = dict(checkpoint.pending)
        max_seq = checkpoint.seq
        #: segment path -> max seq it contains (compaction decisions).
        self._segment_max: dict[Path, int] = {}
        for path in self._segment_paths():
            data = path.read_bytes()
            frames, clean, torn = self._scan(data, path)
            if torn:
                self._torn += 1
                logger.warning(
                    "torn tail in %s: truncating %d byte(s) back to the "
                    "last good frame",
                    path.name,
                    len(data) - clean,
                )
                with open(path, "r+b") as fh:
                    fh.truncate(clean)
            seg_max = checkpoint.seq
            for _, kind, seq, payload in frames:
                seg_max = max(seg_max, seq)
                if seq > max_seq:
                    max_seq = seq
                self._replayed += 1
                if kind == self.KIND_ADMIT:
                    if seq > checkpoint.seq:
                        self._pending[seq] = payload
                elif kind == self.KIND_TERMINAL:
                    (admit_seq,) = _ADMIT_REF.unpack_from(payload, 0)
                    self._pending.pop(admit_seq, None)
            self._segment_max[path] = seg_max
        self._next_seq = max_seq + 1
        paths = self._segment_paths()
        if paths:
            last = paths[-1]
            self._segment_path = last
            self._segment_number = self._segment_index(last)
            self._fh: io.BufferedWriter = open(last, "ab", buffering=_WRITE_BUFFER)
            self._segment_size = last.stat().st_size
        else:
            self._segment_number = 1
            self._segment_path = self._segment_file(1)
            self._fh = open(self._segment_path, "ab", buffering=_WRITE_BUFFER)
            self._segment_max[self._segment_path] = 0
            self._segment_size = 0

    def _segment_file(self, number: int) -> Path:
        return self.directory / f"{_SEGMENT_PREFIX}{number:08d}{_SEGMENT_SUFFIX}"

    # -- appends -------------------------------------------------------------

    def _append_locked(self, kind: int, payload: bytes) -> int:
        if self._closed:
            raise ValueError("journal is closed")
        seq = self._next_seq
        self._next_seq += 1
        frame = self._frame(kind, seq, payload)
        self._fh.write(frame)
        self._bytes += len(frame)
        # Tracked instead of asking the file: tell() is an lseek(2) per
        # append, which dominates the (otherwise syscall-free) hot path.
        self._segment_size += len(frame)
        self._segment_max[self._segment_path] = seq
        if self.fsync_policy == "always":
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fsyncs += 1
        else:
            self._dirty = True
        if self._segment_size >= self.segment_bytes:
            self._rotate_locked()
        return seq

    def _rotate_locked(self) -> None:
        self._fh.flush()
        if self.fsync_policy != "none":
            os.fsync(self._fh.fileno())
            self._fsyncs += 1
            self._dirty = False
        self._fh.close()
        self._segment_number += 1
        self._segment_path = self._segment_file(self._segment_number)
        self._fh = open(self._segment_path, "ab", buffering=_WRITE_BUFFER)
        self._segment_size = 0
        self._segment_max[self._segment_path] = self._next_seq - 1
        logger.info("rotated journal to %s", self._segment_path.name)

    def log_admission(self, item, spec, deadline: float | None = None) -> int:
        """Journal one admitted ``(item, spec)`` pair; returns its seq.

        Called by the service *before* the request becomes completable,
        so no future can settle for work the journal does not know about.
        """
        payload = pickle.dumps((item, spec, deadline), _PICKLE_PROTOCOL)
        with self._lock:
            seq = self._append_locked(self.KIND_ADMIT, payload)
            self._pending[seq] = payload
            self._admitted += 1
            return seq

    def log_terminal(self, seq: int, status: str) -> None:
        """Journal the terminal outcome of admission ``seq``.

        ``status`` is the trace terminal stage (``completed`` /
        ``expired`` / ``rejected`` / ``cancelled`` / ``failed``).  Every
        admission with a terminal is excluded from replay; auto-
        checkpointing (``checkpoint_every``) triggers here, since
        terminals are what move the watermark.
        """
        payload = _ADMIT_REF.pack(seq) + status.encode("utf-8")
        with self._lock:
            self._append_locked(self.KIND_TERMINAL, payload)
            self._pending.pop(seq, None)
            self._terminals[status] = self._terminals.get(status, 0) + 1
            self._since_checkpoint += 1
            if self.checkpoint_every and (
                self._since_checkpoint >= self.checkpoint_every
            ):
                self._checkpoint_locked()

    # -- durability ----------------------------------------------------------

    def flush(self) -> None:
        """Push buffered appends to disk (fsync under the ``batch`` policy)."""
        with self._lock:
            if self._closed:
                return
            self._fh.flush()
            if self.fsync_policy == "batch" and self._dirty:
                os.fsync(self._fh.fileno())
                self._fsyncs += 1
                self._dirty = False

    def checkpoint(self) -> int:
        """Snapshot the watermark and compact; returns the covered seq.

        After a checkpoint at seq ``S``, replay loads the (atomic)
        snapshot and scans only records with seq > ``S`` — the recovery
        cost is the gap since this call, not the journal's history.
        """
        with self._lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> int:
        # The snapshot must not claim records the OS may not have; flush
        # (and fsync under batch/always) before writing the watermark.
        self._fh.flush()
        if self.fsync_policy != "none" and self._dirty:
            os.fsync(self._fh.fileno())
            self._fsyncs += 1
            self._dirty = False
        seq = self._next_seq - 1
        self._store.save(seq, dict(self._pending))
        self._checkpoints += 1
        self._since_checkpoint = 0
        self._compact_locked(seq)
        return seq

    def _compact_locked(self, watermark: int) -> None:
        """Delete segments fully covered by the checkpoint at ``watermark``.

        A segment is deletable when every record in it has
        ``seq <= watermark``: its pending admissions live in the
        checkpoint snapshot and everything else is settled history.  The
        active segment is rotated away first if it qualifies, so the
        journal never appends to a deleted file.
        """
        for path, seg_max in list(self._segment_max.items()):
            if seg_max > watermark:
                continue
            if path == self._segment_path:
                if path.stat().st_size == 0:
                    continue  # fresh tail segment, nothing to reclaim
                self._rotate_locked()
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            del self._segment_max[path]
            self._compacted += 1
            logger.info("compacted journal segment %s", path.name)

    def close(self) -> None:
        """Flush and close the active segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._fh.flush()
            if self.fsync_policy != "none" and self._dirty:
                os.fsync(self._fh.fileno())
                self._fsyncs += 1
                self._dirty = False
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- recovery reads ------------------------------------------------------

    def pending_entries(self) -> list[AdmittedEntry]:
        """Decoded admissions lacking a terminal, in admission order."""
        with self._lock:
            pending = sorted(self._pending.items())
        entries = []
        for seq, payload in pending:
            item, spec, deadline = pickle.loads(payload)
            entries.append(
                AdmittedEntry(seq=seq, item=item, spec=spec, deadline=deadline)
            )
        return entries

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def stats(self) -> JournalStats:
        with self._lock:
            return JournalStats(
                admitted=self._admitted,
                terminals=dict(self._terminals),
                bytes_written=self._bytes,
                fsyncs=self._fsyncs,
                pending=len(self._pending),
                segments=len(self._segment_max),
                checkpoints=self._checkpoints,
                compacted=self._compacted,
                torn_tails=self._torn,
                replayed=self._replayed,
            )
