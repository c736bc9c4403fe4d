"""End-to-end observability: metrics registry, request traces, exporters.

This package is the serving stack's single observability surface —
everything later operational tooling (gateway quotas, cluster backend
health, SLO dashboards) reads comes through here:

* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, the one home of
  every named counter/gauge/histogram (the service telemetry, the gateway
  and the tick hooks all own families in it) plus pull-time collectors
  for state another object already keeps (backend chunk stats, journal).
* :mod:`repro.obs.trace` — per-request :class:`RequestTrace` spans
  (``admitted → queued → batched → scheduled → completed/...``) in a
  bounded :class:`TraceBuffer` ring.
* :mod:`repro.obs.instrument` — process-global dispatch-tick hooks the
  schedulers and engine call; :func:`install` / :func:`uninstall` toggle
  them, and the bare path costs one branch when off.
* :mod:`repro.obs.bridge` — :func:`bind_service`, exporting a
  :class:`~repro.serving.service.LabelingService`'s live state and its
  cache/backend/journal stats as metric families at scrape time.

``/metrics``, ``/metrics.json``, ``/traces`` and ``/healthz`` are served
by the gateway's asyncio listener
(:class:`~repro.serving.gateway.app.LabelingGateway`), which is also what
``serve --metrics-port`` binds.

The whole package is stdlib-only, so the scheduling and engine layers
can import their hooks without dragging the serving tier (or numpy)
into their import graphs.  ``benchmarks/bench_obs_overhead.py`` gates
the fully-instrumented dispatch path at <3% overhead versus bare.
"""

from repro.obs.bridge import bind_service, service_families
from repro.obs.instrument import (
    TickInstrumentation,
    batch_observer,
    engine_observer,
    install,
    installed,
    uninstall,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.trace import (
    SPAN_STAGES,
    TERMINAL_STAGES,
    RequestTrace,
    TraceBuffer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "RequestTrace",
    "SPAN_STAGES",
    "TERMINAL_STAGES",
    "TickInstrumentation",
    "TraceBuffer",
    "batch_observer",
    "bind_service",
    "engine_observer",
    "install",
    "installed",
    "service_families",
    "uninstall",
]
