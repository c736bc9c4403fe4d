"""Atomic file writes and batch-run manifests.

Two durability primitives that bound how much work a crash can cost:

* :func:`atomic_write_bytes` / :func:`atomic_write_json` — write-to-temp
  then :func:`os.replace` in the *same* directory, with an fsync of the
  temp file before the rename and of the directory after it.  A crash at
  any instant leaves either the old file or the new file on disk, never
  a torn hybrid.  Run manifests and
  :func:`repro.persistence.save_ground_truth` go through this.
* :class:`RunManifest` — the resume unit for long batch jobs.  A
  ``repro.cli schedule --manifest`` run records its world parameters and
  the full item list up front, then marks items done as results land
  (atomically, every ``flush_every`` completions); ``--resume`` reloads
  the manifest and schedules only the remainder, mid-trace.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

__all__ = [
    "RunManifest",
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_directory",
]

_MANIFEST_VERSION = 1


def fsync_directory(path: str | Path) -> None:
    """fsync a directory so a rename, new entry or unlink in it is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash never leaves a torn file.

    The bytes land in a temp file in the target directory (same
    filesystem, so the final :func:`os.replace` is atomic), are fsynced,
    and only then renamed over the destination; the directory is fsynced
    last, so the rename itself survives power loss.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)


def atomic_write_json(path: str | Path, obj) -> None:
    """Atomically write ``obj`` as (sorted-key, indented) JSON."""
    atomic_write_bytes(
        path, json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")
    )


class RunManifest:
    """Resumable record of one batch of items and which of them are done.

    The manifest is a single JSON file: the run's parameters (whatever
    the caller passes as ``params``), the ordered item list, and a
    ``completed`` map of item id -> result summary.  Two callers:
    ``repro.cli schedule --manifest`` stores truth/agent paths and
    budgets and marks items as they land; the gateway's job store
    (:mod:`repro.serving.gateway.jobs`) stores one async job's spec and
    writes every row at once when the job's last item settles.
    :meth:`mark_done` buffers completions and flushes atomically every
    ``flush_every`` items (and at :meth:`save`), so a killed run loses
    at most ``flush_every - 1`` results — and never the file itself.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        params: dict | None = None,
        item_ids: list[str] | None = None,
        completed: dict[str, dict] | None = None,
        created_at: float | None = None,
        flush_every: int = 10,
    ):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = Path(path)
        self.params = dict(params or {})
        self.item_ids = list(item_ids or [])
        self.completed = dict(completed or {})
        self.created_at = time.time() if created_at is None else created_at
        self.flush_every = flush_every
        self._dirty = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        item_ids: list[str],
        params: dict | None = None,
        *,
        flush_every: int = 10,
    ) -> "RunManifest":
        """Start a fresh run: write the manifest before any work happens."""
        manifest = cls(
            path, params=params, item_ids=item_ids, flush_every=flush_every
        )
        manifest.save()
        return manifest

    @classmethod
    def load(cls, path: str | Path, *, flush_every: int = 10) -> "RunManifest":
        with open(path, "rb") as fh:
            raw = json.load(fh)
        version = int(raw.get("version", 0))
        if version != _MANIFEST_VERSION:
            raise ValueError(f"unsupported run-manifest version v{version}")
        return cls(
            path,
            params=raw.get("params", {}),
            item_ids=raw.get("item_ids", []),
            completed=raw.get("completed", {}),
            created_at=raw.get("created_at"),
            flush_every=flush_every,
        )

    # -- progress ------------------------------------------------------------

    @property
    def remaining(self) -> list[str]:
        """Item ids not yet marked done, in the run's original order."""
        return [i for i in self.item_ids if i not in self.completed]

    @property
    def done(self) -> int:
        return len(self.completed)

    def mark_done(self, item_id: str, summary: dict | None = None) -> None:
        """Record one completion; flushes every ``flush_every`` marks."""
        self.completed[item_id] = summary if summary is not None else {}
        self._dirty += 1
        if self._dirty >= self.flush_every:
            self.save()

    def save(self) -> None:
        """Atomically persist the manifest (no-op-safe to call anytime)."""
        atomic_write_json(
            self.path,
            {
                "version": _MANIFEST_VERSION,
                "created_at": self.created_at,
                "params": self.params,
                "item_ids": self.item_ids,
                "completed": self.completed,
            },
        )
        self._dirty = 0
