"""Service telemetry: a typed front over the service's registry families.

The serving tier is judged by numbers — how long requests queued, how fast
batches ran, how many requests were turned away.  Every one of those
numbers lives in a :class:`~repro.obs.registry.MetricsRegistry`:
:class:`ServiceTelemetry` owns the ``repro_requests_total``,
``repro_batches_total``, ``repro_*_items_total``, ``repro_*_seconds`` and
``repro_slo_*`` / ``repro_tenant_*`` families there and is the only
writer to them, so what ``/metrics`` exports and what
:meth:`~ServiceTelemetry.snapshot` reports are the same series read two
ways.  The snapshot is the immutable view tests assert on and the
``serve`` CLI / benchmarks print.

Latency populations are summarized by :class:`LatencyStats` (p50/p95/p99,
mean, max) read from the registry's bounded reservoir histograms, so an
unbounded stream of observations runs in bounded memory while the
percentiles stay representative and count and mean stay exact.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.obs.registry import MetricsRegistry

#: Counter names every snapshot carries (all start at zero).
#: ``submitted_many`` counts bulk-admission *calls* (one per
#: ``submit_many``), while ``submitted`` keeps counting individual items.
#: The ``cache_*``/``coalesced`` counters only move on a service built
#: with a result cache: ``cache_hit`` submissions were answered from a
#: completed cached result, ``coalesced`` ones attached to an in-flight
#: duplicate, and ``cache_miss`` ones paid for scheduling.
COUNTERS = (
    "submitted",
    "submitted_many",
    "completed",
    "rejected",
    "expired",
    "failed",
    "cancelled",
    "cache_hit",
    "cache_miss",
    "coalesced",
)

#: Flush triggers the dispatch loop distinguishes.  ``regime_split`` marks
#: an underfull batch whose timer expired while different-regime requests
#: waited — bounded by grouping, not by traffic (see
#: ``RequestQueue.pop_batch``).
FLUSH_REASONS = ("size", "wait", "drain", "regime_split")

#: Request fates the per-regime SLO series distinguish.
SLO_OUTCOMES = ("completed", "expired", "failed")

#: Reservoir bound of every service latency summary: a benchmark-length
#: run is summarised exactly, a long-lived service stays bounded.
_RESERVOIR = 100_000


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over one latency population (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    def format(self) -> str:
        if self.count == 0:
            return "no samples"
        return (
            f"p50 {self.p50 * 1000:7.2f}ms  p95 {self.p95 * 1000:7.2f}ms  "
            f"p99 {self.p99 * 1000:7.2f}ms  max {self.max * 1000:7.2f}ms  "
            f"(n={self.count})"
        )


def _latency_stats(series) -> LatencyStats:
    """Summarize one registry histogram series."""
    count, total, q = series.summary((0.5, 0.95, 0.99, 1.0))
    return LatencyStats(
        count=count,
        mean=total / count if count else 0.0,
        p50=q[0.5],
        p95=q[0.95],
        p99=q[0.99],
        max=q[1.0],
    )


@dataclass(frozen=True)
class RegimeSLO:
    """One regime's service-level view: outcomes and end-to-end latency.

    ``deadline_miss_rate`` is the fraction of definitively-fated
    deadline-carrying traffic that expired instead of completing;
    ``time_to_first_result`` is the end-to-end latency of the regime's
    first completion — the cold-start number an operator watches after a
    deploy or a recovery.
    """

    #: Requests that resolved with a result.
    completed: int = 0
    #: Requests dropped because their admission deadline lapsed.
    expired: int = 0
    #: Requests that resolved with a serving error.
    failed: int = 0
    #: End-to-end submit→completion latency of the first completion
    #: (``None`` until the regime completes something).
    time_to_first_result: float | None = None
    #: Submit→completion latency distribution.
    e2e: LatencyStats = LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @property
    def deadline_miss_rate(self) -> float:
        """``expired / (completed + expired)`` (0.0 with no traffic)."""
        settled = self.completed + self.expired
        return self.expired / settled if settled else 0.0

    def format(self) -> str:
        ttfr = (
            f"{self.time_to_first_result * 1000:.1f}ms"
            if self.time_to_first_result is not None
            else "-"
        )
        return (
            f"completed {self.completed}  expired {self.expired}  "
            f"failed {self.failed}  miss rate {self.deadline_miss_rate:.1%}  "
            f"ttfr {ttfr}  e2e {self.e2e.format()}"
        )


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One immutable view of the service's health, safe to hold and compare."""

    #: Wall-clock seconds since the service was built.
    elapsed: float
    #: Request counters: submitted/completed/rejected/expired/failed/cancelled.
    counters: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in COUNTERS}
    )
    #: Batches dispatched, by flush trigger: size/wait/drain/regime_split.
    flushes: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in FLUSH_REASONS}
    )
    #: Total items dispatched across all batches.
    batched_items: int = 0
    #: Items dispatched per scheduling regime (qgreedy/deadline/…); only
    #: regimes that saw traffic appear.
    regimes: dict[str, int] = field(default_factory=dict)
    #: Items dispatched per worker (thread name, or ``pid<n>`` for the
    #: process backend's scheduling workers); only workers that saw
    #: traffic appear.
    workers: dict[str, int] = field(default_factory=dict)
    #: Requests waiting in the admission queue right now.
    queue_depth: int = 0
    #: Requests inside worker batches right now.
    in_flight: int = 0
    queue_wait: LatencyStats = LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    service_time: LatencyStats = LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    #: Per-regime SLO view (deadline-miss rate, time-to-first-result,
    #: end-to-end latency); only regimes that saw settled traffic appear.
    slo: dict[str, RegimeSLO] = field(default_factory=dict)
    #: Queue-wait distribution per tenant; only tenants whose requests
    #: carried a :attr:`~repro.spec.LabelingSpec.tenant` appear.
    tenant_queue_wait: dict[str, LatencyStats] = field(default_factory=dict)
    #: Per-tenant SLO view (same shape as :attr:`slo`, keyed by tenant).
    tenant_slo: dict[str, RegimeSLO] = field(default_factory=dict)

    @property
    def batches(self) -> int:
        return sum(self.flushes.values())

    @property
    def mean_batch_size(self) -> float:
        return self.batched_items / self.batches if self.batches else 0.0

    @property
    def throughput(self) -> float:
        """Completed items per wall-clock second since the service was built."""
        return self.counters["completed"] / self.elapsed if self.elapsed > 0 else 0.0

    def format(self) -> str:
        """Multi-line human-readable report (the ``serve`` CLI's output)."""
        c = self.counters
        lines = [
            f"serving telemetry ({self.elapsed:.2f}s)",
            (
                f"  requests    submitted {c['submitted']}  completed {c['completed']}  "
                f"rejected {c['rejected']}  expired {c['expired']}  "
                f"failed {c['failed']}  cancelled {c['cancelled']}"
            ),
            (
                f"  batches     {self.batches} dispatched "
                f"(size {self.flushes['size']} / wait {self.flushes['wait']} / "
                f"drain {self.flushes['drain']} / "
                f"regime_split {self.flushes['regime_split']}), "
                f"mean size {self.mean_batch_size:.1f}"
            ),
            f"  throughput  {self.throughput:.1f} items/sec",
        ]
        if c["cache_hit"] or c["cache_miss"] or c["coalesced"]:
            served = c["cache_hit"] + c["coalesced"]
            lookups = served + c["cache_miss"]
            lines.append(
                f"  cache       hits {c['cache_hit']}  "
                f"coalesced {c['coalesced']}  misses {c['cache_miss']}  "
                f"(hit rate {served / lookups:.1%})"
            )
        if self.regimes:
            per_regime = "  ".join(
                f"{regime} {count}" for regime, count in sorted(self.regimes.items())
            )
            lines.append(f"  regimes     {per_regime}")
        if self.workers:
            per_worker = "  ".join(
                f"{worker} {count}" for worker, count in sorted(self.workers.items())
            )
            lines.append(f"  workers     {per_worker}")
        lines += [
            f"  queue wait  {self.queue_wait.format()}",
            f"  service     {self.service_time.format()}",
        ]
        for regime, slo in sorted(self.slo.items()):
            lines.append(f"  slo[{regime}]  {slo.format()}")
        for tenant, stats in sorted(self.tenant_queue_wait.items()):
            lines.append(f"  wait[{tenant}]  {stats.format()}")
        for tenant, slo in sorted(self.tenant_slo.items()):
            lines.append(f"  tenant[{tenant}]  {slo.format()}")
        lines.append(
            f"  now         queue depth {self.queue_depth}, in flight {self.in_flight}"
        )
        return "\n".join(lines)


def _slo_families(registry: MetricsRegistry, prefix: str, label: str) -> dict:
    """The SLO outcome counters and e2e summary sliced by ``label``."""
    return {
        "completed": registry.counter(
            f"{prefix}_completed_total", f"Requests completed per {label}", (label,)
        ),
        "expired": registry.counter(
            f"{prefix}_expired_total",
            f"Requests expired (admission deadline missed) per {label}",
            (label,),
        ),
        "failed": registry.counter(
            f"{prefix}_failed_total", f"Requests failed per {label}", (label,)
        ),
        "e2e": registry.histogram(
            f"{prefix}_e2e_seconds",
            f"Submit-to-completion latency per {label}",
            (label,),
            capacity=_RESERVOIR,
        ),
    }


class ServiceTelemetry:
    """The service's writer to — and typed reader of — its metric families.

    All mutation goes through :meth:`count`, :meth:`observe_queue_wait`,
    :meth:`observe_service_time`, :meth:`observe_flush`,
    :meth:`observe_outcome` and :meth:`observe_dispatch`; reads go through
    :meth:`snapshot` (or a registry scrape).  Each label child is resolved
    once and cached, so an observation is a dict probe plus one increment
    under that series' own small lock — nanoseconds next to a model
    execution.  Without a ``registry`` the telemetry keeps a private one.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        # Fixed-label series are created here so they export at zero.
        requests = registry.counter(
            "repro_requests_total", "Requests by outcome counter", ("outcome",)
        )
        self._counters = {name: requests.labels(outcome=name) for name in COUNTERS}
        batches = registry.counter(
            "repro_batches_total",
            "Micro-batches dispatched by flush reason",
            ("reason",),
        )
        self._flushes = {
            reason: batches.labels(reason=reason) for reason in FLUSH_REASONS
        }
        self._batched_items = registry.counter(
            "repro_batched_items_total", "Items dispatched across all micro-batches"
        ).labels()
        self._regime_items = registry.counter(
            "repro_regime_items_total",
            "Items dispatched per scheduling regime",
            ("regime",),
        )
        self._queue_wait = registry.histogram(
            "repro_queue_wait_seconds", "Queue wait per request", capacity=_RESERVOIR
        ).labels()
        self._service_time = registry.histogram(
            "repro_service_time_seconds", "Batch service time", capacity=_RESERVOIR
        ).labels()
        self._tenant_queue_wait = registry.histogram(
            "repro_tenant_queue_wait_seconds",
            "Queue wait per request per tenant",
            ("tenant",),
            capacity=_RESERVOIR,
        )
        self._slo_families = {
            "regime": _slo_families(registry, "repro_slo", "regime"),
            "tenant": _slo_families(registry, "repro_tenant_slo", "tenant"),
        }
        # Label children seen so far, resolved once (see _cached).
        self._lock = threading.Lock()
        self._regimes: dict[str, object] = {}
        self._workers: dict[str, object] = {}
        self._tenant_waits: dict[str, object] = {}
        #: (``"regime"`` | ``"tenant"``, label value) -> that slice's
        #: completed/expired/failed/e2e children.
        self._slo: dict[tuple[str, str], dict] = {}
        #: Same key -> e2e latency of the slice's first completion.
        self._first_result: dict[tuple[str, str], float] = {}

    def _cached(self, cache: dict, key, resolve):
        """``cache[key]``, calling ``resolve()`` for it the first time only."""
        series = cache.get(key)
        if series is None:
            with self._lock:
                series = cache.get(key)
                if series is None:
                    series = cache[key] = resolve()
        return series

    def count(self, name: str, n: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            raise ValueError(
                f"unknown counter {name!r}; expected one of {sorted(COUNTERS)}"
            )
        counter.inc(n)

    def observe_queue_wait(self, seconds: float, tenant: str | None = None) -> None:
        """Record one request's queue wait, optionally against its tenant.

        The global distribution always moves; a ``tenant`` additionally
        lands the sample in that tenant's own histogram — the per-tenant
        p99 the gateway's fairness guarantee is judged by.
        """
        self._queue_wait.observe(seconds)
        if tenant is not None:
            self._cached(
                self._tenant_waits,
                tenant,
                lambda: self._tenant_queue_wait.labels(tenant=tenant),
            ).observe(seconds)

    def observe_service_time(self, seconds: float) -> None:
        self._service_time.observe(seconds)

    def observe_flush(self, size: int, reason: str, regime: str | None = None) -> None:
        flushes = self._flushes.get(reason)
        if flushes is None:
            raise ValueError(
                f"unknown flush reason {reason!r}; "
                f"expected one of {sorted(FLUSH_REASONS)}"
            )
        flushes.inc()
        self._batched_items.inc(size)
        if regime is not None:
            self._cached(
                self._regimes,
                regime,
                lambda: self._regime_items.labels(regime=regime),
            ).inc(size)

    def observe_outcome(
        self,
        regime: str,
        outcome: str,
        e2e_seconds: float | None = None,
        tenant: str | None = None,
    ) -> None:
        """Record one settled request against ``regime``'s SLO view.

        ``outcome`` is one of :data:`SLO_OUTCOMES`; completions should pass
        their submit→completion latency as ``e2e_seconds`` so the per-regime
        distribution and time-to-first-result stay populated.  A ``tenant``
        additionally lands the outcome in that tenant's own SLO series
        (same shape, keyed by tenant in the snapshot).
        """
        if outcome not in SLO_OUTCOMES:
            raise ValueError(
                f"unknown SLO outcome {outcome!r}; "
                f"expected one of {sorted(SLO_OUTCOMES)}"
            )
        for key in (("regime", regime), ("tenant", tenant)):
            label, value = key
            if value is None:
                continue
            series = self._cached(
                self._slo,
                key,
                lambda: {
                    name: family.labels(**{label: value})
                    for name, family in self._slo_families[label].items()
                },
            )
            series[outcome].inc()
            if outcome == "completed" and e2e_seconds is not None:
                series["e2e"].observe(e2e_seconds)
                self._first_result.setdefault(key, e2e_seconds)

    def observe_dispatch(self, worker: str, size: int) -> None:
        """Record that ``worker`` (a service worker thread) ran ``size``
        items — the per-worker dispatch counter behind the snapshot's
        ``workers`` map.  The family is created on first use: a backend
        that counts its own workers exports it instead (see
        :mod:`repro.obs.bridge`)."""
        self._cached(
            self._workers,
            worker,
            lambda: self.registry.counter(
                "repro_worker_items_total",
                "Items dispatched per scheduling worker (thread or pid)",
                ("worker",),
            ).labels(worker=worker),
        ).inc(size)

    def slo(self, label: str, e2e: bool = True) -> dict[str, RegimeSLO]:
        """The SLO view sliced by ``label`` (``"regime"`` or ``"tenant"``);
        only slices that saw settled traffic appear.  ``e2e=False`` leaves
        the latency summaries empty — the scrape-time gauges need only the
        counts, and the scrape already sorts each reservoir once."""
        with self._lock:
            slices = [(key, s) for key, s in self._slo.items() if key[0] == label]
        return {
            key[1]: RegimeSLO(
                completed=int(series["completed"].value),
                expired=int(series["expired"].value),
                failed=int(series["failed"].value),
                time_to_first_result=self._first_result.get(key),
                e2e=_latency_stats(series["e2e"]) if e2e else RegimeSLO.e2e,
            )
            for key, series in slices
        }

    def snapshot(
        self,
        elapsed: float = 0.0,
        queue_depth: int = 0,
        in_flight: int = 0,
        extra_workers: dict[str, int] | None = None,
    ) -> TelemetrySnapshot:
        """Point-in-time view read from the registry families.

        ``elapsed``, ``queue_depth`` and ``in_flight`` are the caller's
        live state; ``extra_workers`` merges externally tracked
        per-worker counters (the process backend's per-pid dispatch
        counts) into the ``workers`` map.
        """
        with self._lock:
            regimes = dict(self._regimes)
            workers = dict(self._workers)
            tenant_waits = dict(self._tenant_waits)
        workers = {worker: int(child.value) for worker, child in workers.items()}
        for worker, count in (extra_workers or {}).items():
            workers[worker] = workers.get(worker, 0) + count
        return TelemetrySnapshot(
            elapsed=elapsed,
            counters={
                name: int(child.value) for name, child in self._counters.items()
            },
            flushes={
                reason: int(child.value) for reason, child in self._flushes.items()
            },
            batched_items=int(self._batched_items.value),
            regimes={regime: int(child.value) for regime, child in regimes.items()},
            workers=workers,
            queue_depth=queue_depth,
            in_flight=in_flight,
            queue_wait=_latency_stats(self._queue_wait),
            service_time=_latency_stats(self._service_time),
            slo=self.slo("regime"),
            tenant_queue_wait={
                tenant: _latency_stats(child)
                for tenant, child in tenant_waits.items()
            },
            tenant_slo=self.slo("tenant"),
        )
