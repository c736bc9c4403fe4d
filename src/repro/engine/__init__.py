"""Batched labeling engine with pluggable execution backends.

This subsystem turns the per-item prediction–scheduling–execution loop
into a batch/stream pipeline: the :class:`LabelingEngine` records items in
bulk, drives many items' schedules concurrently through an
:class:`ExecutionBackend`, and lets go of the ground-truth records it
recorded once results are built; the cache frees a record nobody holds.
It is the one entry point for labeling: build it over a zoo and a trained
predictor, then call ``label_batch`` or ``label_stream``.
"""

from repro.engine.backends import (
    BatchedBackend,
    ExecutionBackend,
    LabelingJob,
    SerialBackend,
    schedule_one_item,
)
from repro.engine.cluster import (
    ClusterBackend,
    ClusterWorker,
    LocalWorkerFleet,
    WorkerDied,
    spawn_local_workers,
)
from repro.engine.config import (
    BACKEND_REGISTRY,
    BackendConfig,
    BatchedConfig,
    ClusterConfig,
    ProcessConfig,
    SerialConfig,
    make_backend,
)
from repro.engine.process import ProcessPoolBackend
from repro.engine.snapshot import (
    WorldSnapshot,
    capture_predictor,
    restore_predictor,
)
from repro.engine.engine import DEFAULT_BATCH_SIZE, LabelingEngine
from repro.engine.results import LabelingResult, result_from_trace
from repro.spec import LabelingSpec

__all__ = [
    "BACKEND_REGISTRY",
    "BackendConfig",
    "BatchedBackend",
    "BatchedConfig",
    "ClusterBackend",
    "ClusterConfig",
    "ClusterWorker",
    "DEFAULT_BATCH_SIZE",
    "ExecutionBackend",
    "LabelingEngine",
    "LabelingJob",
    "LabelingResult",
    "LabelingSpec",
    "LocalWorkerFleet",
    "ProcessConfig",
    "ProcessPoolBackend",
    "SerialBackend",
    "SerialConfig",
    "WorkerDied",
    "WorldSnapshot",
    "capture_predictor",
    "make_backend",
    "restore_predictor",
    "result_from_trace",
    "schedule_one_item",
    "spawn_local_workers",
]
