"""Async labeling service: micro-batching, priority admission, telemetry.

This subsystem is the layer between the batched
:class:`~repro.engine.engine.LabelingEngine` and the outside world: many
logical clients submit single items and get futures back, while a
dispatcher coalesces requests into the large batches the engine's stacked
Q-network forwards need — flushing on ``batch_size`` reached or
``max_wait`` elapsed, whichever first — and hands each batch only to a
free worker, so a backlog stays queued.  Admission is priority-ordered
with bounded-depth backpressure and deadline-based drops; everything is
observable through telemetry snapshots.

Every request carries a :class:`~repro.spec.LabelingSpec` (or inherits
the service default), and requests are queued into one FIFO bucket per
:attr:`LabelingSpec.batch_key` so each micro-batch is homogeneous — one
service hosts unconstrained, deadline, and deadline+memory traffic at
once.  Buckets are served by weighted round-robin (stride scheduling:
higher-priority buckets proportionally more often, every backlogged
bucket within bounded rounds), so no regime starves under cross-traffic.
An optional :class:`ResultCache` in front of the queue answers repeat
submissions of hot ``(item, batch_key)`` pairs without scheduling and
coalesces concurrent duplicates onto one in-flight future.

Quickstart::

    engine = LabelingEngine(zoo, predictor, config)
    with LabelingService(engine, batch_size=64, max_wait=0.01) as service:
        futures = [
            service.submit(item, LabelingSpec(deadline=0.5, priority=1))
            for item in items
        ]
        results = [f.result() for f in futures]
    print(service.snapshot().format())
"""

from repro.serving.queue import (
    BulkAdmission,
    DeadlineExpired,
    LabelingRequest,
    QueueFull,
    RequestQueue,
    ServiceStopped,
    ServingError,
)
from repro.serving.hierarchy import HierarchicalRequestQueue
from repro.serving.result_cache import CacheStats, ResultCache
from repro.spec import LabelingSpec
from repro.serving.service import (
    DEFAULT_EXPIRY_INTERVAL,
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_WAIT,
    DEFAULT_WORKERS,
    LabelingService,
)
from repro.serving.telemetry import (
    LatencyStats,
    ServiceTelemetry,
    TelemetrySnapshot,
)

__all__ = [
    "BulkAdmission",
    "CacheStats",
    "DEFAULT_EXPIRY_INTERVAL",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_WAIT",
    "DEFAULT_WORKERS",
    "DeadlineExpired",
    "HierarchicalRequestQueue",
    "LabelingRequest",
    "LabelingService",
    "LabelingSpec",
    "LatencyStats",
    "QueueFull",
    "RequestQueue",
    "ResultCache",
    "ServiceStopped",
    "ServiceTelemetry",
    "ServingError",
    "TelemetrySnapshot",
]
