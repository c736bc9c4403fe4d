"""The gateway's async jobs, each kept as one run manifest.

:class:`JobStore` is the job table (a per-tenant cap that evicts the
oldest finished job) and, given a directory, its durable copy: job
``<id>`` is the :class:`~repro.durability.checkpoint.RunManifest`
``<directory>/<id>.json`` with the spec as plain JSON in
``params["spec"]``.  It is written when the job is accepted, before the
202, and again with every row in ``completed`` once the last item
settles; eviction unlinks it.  :meth:`JobStore.restore` reads the files
back as data only — the spec is re-validated by
:class:`~repro.spec.LabelingSpec` — and skips, with a warning, any file
that fails to load or names an unknown tenant or item.
"""

from __future__ import annotations

import dataclasses
import logging
import re
import uuid
from collections.abc import Container
from pathlib import Path

from repro.durability.checkpoint import RunManifest, fsync_directory
from repro.spec import LabelingSpec

__all__ = ["Job", "JobStore"]

logger = logging.getLogger(__name__)

_JOB_FILE = re.compile(r"[0-9a-f]{16}\.json")


@dataclasses.dataclass(eq=False)
class Job:
    """One accepted async batch: futures while running, rows once settled."""

    job_id: str
    spec: LabelingSpec
    item_ids: list[str]
    futures: list = ()
    cached: list = ()
    #: One rendered row per item, set once every item has settled.
    results: list[dict] | None = None
    manifest: RunManifest | None = None


class JobStore:
    """The job table; one manifest per job under ``directory`` (if any)."""

    def __init__(self, directory: str | Path | None, max_per_tenant: int):
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.max_per_tenant = max_per_tenant
        self._jobs: dict[str, Job] = {}

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def create(self, spec: LabelingSpec, item_ids, futures, cached) -> Job | None:
        """Register and persist a new job; ``None`` when the tenant is at
        its cap and none of its jobs has finished to make room."""
        mine = [job for job in self._jobs.values() if job.spec.tenant == spec.tenant]
        if len(mine) >= self.max_per_tenant:
            finished = [job for job in mine if job.results is not None]
            if not finished:
                return None
            self._drop(finished[0])
        job = Job(uuid.uuid4().hex[:16], spec, item_ids, futures, cached)
        if self.directory is not None:
            job.manifest = RunManifest(
                self.directory / f"{job.job_id}.json",
                item_ids=item_ids,
                params={"spec": dataclasses.asdict(spec)},
            )
            self._save(job)
        self._jobs[job.job_id] = job
        return job

    def finish(self, job: Job, rows: list[dict]) -> None:
        """Store a job's rows once its last item has settled."""
        job.results = rows
        if job.manifest is not None:
            job.manifest.completed = dict(zip(job.item_ids, rows))
            self._save(job)

    def restore(self, catalog: Container[str], tenants: Container[str]) -> list[Job]:
        """Load the directory's jobs, oldest first; returns the unfinished
        ones, whose items the caller resubmits."""
        if self.directory is None:
            return []
        jobs = []
        for path in sorted(self.directory.iterdir()):
            try:
                jobs.append(self._load(path, catalog, tenants))
            except Exception as exc:  # noqa: BLE001 — skip the file, keep the rest
                logger.warning("skipping job file %s: %s", path.name, exc)
        jobs.sort(key=lambda job: job.manifest.created_at)
        self._jobs.update((job.job_id, job) for job in jobs)
        return [job for job in jobs if job.results is None]

    @staticmethod
    def _load(path: Path, catalog, tenants) -> Job:
        if not _JOB_FILE.fullmatch(path.name):
            raise ValueError("not named <16 hex digits>.json")
        manifest = RunManifest.load(path)
        manifest.created_at = float(manifest.created_at)
        spec = LabelingSpec(**manifest.params["spec"])
        if spec.tenant not in tenants:
            raise ValueError(f"unknown tenant {spec.tenant!r}")
        item_ids = manifest.item_ids
        unknown = [item_id for item_id in item_ids if item_id not in catalog]
        if unknown or not item_ids:
            raise ValueError(f"unknown item ids {unknown[:3]!r} of {len(item_ids)}")
        job = Job(path.stem, spec, item_ids, manifest=manifest)
        if all(item_id in manifest.completed for item_id in item_ids):
            job.results = [manifest.completed[item_id] for item_id in item_ids]
        return job

    def _drop(self, job: Job) -> None:
        del self._jobs[job.job_id]
        if job.manifest is not None:
            try:
                job.manifest.path.unlink(missing_ok=True)
                fsync_directory(self.directory)
            except OSError:
                logger.exception("failed to delete job file of %s", job.job_id)

    @staticmethod
    def _save(job: Job) -> None:
        try:
            job.manifest.save()
        except Exception:  # noqa: BLE001 — the job runs on without its file
            logger.exception("failed to write job %s", job.job_id)
