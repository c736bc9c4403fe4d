"""Crash safety for the serving tier: WAL, atomic writes, resumable runs.

The package is stdlib-only and sits below the serving layer:

* :class:`~repro.durability.journal.Journal` — write-ahead journal of
  admitted ``(item, spec)`` pairs, one sqlite3 table in WAL mode whose
  rows are the admissions still owed a terminal (configurable fsync,
  CRC-checked payloads).
* :class:`~repro.durability.checkpoint.RunManifest` — resume manifests
  for long batch runs (``repro.cli schedule --manifest/--resume``).
* :func:`~repro.durability.checkpoint.atomic_write_bytes` /
  :func:`~repro.durability.checkpoint.atomic_write_json` — crash-safe
  file replacement used by the manifests (and by
  :mod:`repro.persistence`).

Recovery itself lives where the futures live:
``LabelingService(journal=...)`` journals admissions and terminals, and
``service.recover()`` replays the pending rows through the single-flight
result cache.
"""

from repro.durability.checkpoint import (
    RunManifest,
    atomic_write_bytes,
    atomic_write_json,
)
from repro.durability.journal import (
    FSYNC_POLICIES,
    AdmittedEntry,
    Journal,
    JournalCorrupt,
    JournalStats,
)

__all__ = [
    "AdmittedEntry",
    "FSYNC_POLICIES",
    "Journal",
    "JournalCorrupt",
    "JournalStats",
    "RunManifest",
    "atomic_write_bytes",
    "atomic_write_json",
]
