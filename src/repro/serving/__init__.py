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
``(tenant, batch_key)`` so each micro-batch is homogeneous — one
service hosts unconstrained, deadline, and deadline+memory traffic at
once.  Tenants, then buckets within a tenant, are served by weighted
round-robin (stride scheduling: heavier tenants and higher-priority
buckets proportionally more often, every backlogged one within bounded
rounds), so no tenant or regime starves under cross-traffic.
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
from repro.serving.result_cache import CacheStats, ResultCache
from repro.spec import LabelingSpec
from repro.serving.service import (
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

#: Former name of the tenant-fair queue, now :class:`RequestQueue` itself;
#: kept only for ``benchmarks/perf/perfledger/probes.py``.
HierarchicalRequestQueue = RequestQueue

__all__ = [
    "BulkAdmission",
    "CacheStats",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_WAIT",
    "DEFAULT_WORKERS",
    "DeadlineExpired",
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
