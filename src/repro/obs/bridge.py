"""Scrape-time adapter: the service's pull-time state -> metric families.

Everything the serving tier *counts* — requests, batches, items, queue
wait, service time, per-regime and per-tenant SLO outcomes — is owned by
:class:`~repro.serving.telemetry.ServiceTelemetry` as registry families
and needs no translation.  What is left for this module is state some
other object already keeps, read only **when the registry is scraped**
so exporting it costs the request path nothing.  :func:`bind_service`
registers one collector per service for:

* ``repro_queue_depth``, ``repro_in_flight``, ``repro_uptime_seconds`` —
  live service state
* ``repro_slo_deadline_miss_ratio{regime}``,
  ``repro_slo_time_to_first_result_seconds{regime}`` and
  ``repro_tenant_slo_deadline_miss_ratio{tenant}`` — gauges derived from
  the owned SLO series
* ``repro_worker_items_total{worker}`` when the backend counts its own
  workers (per pid / per cluster address)
* ``repro_cache_*`` and ``repro_backend_*`` when the service has a result
  cache / a chunk-counting backend
* ``repro_journal_*`` / ``repro_recovery_*`` when the service carries a
  write-ahead journal — records, fsyncs, pending backlog, compaction,
  and replay outcomes of each ``recover()``
* ``repro_cluster_*`` under the cluster backend

The full catalog lives in README "Observability".  This module imports
only :mod:`repro.obs.registry`, so the obs package stays out of the
scheduling/engine import graph.
"""

from __future__ import annotations

from repro.obs.registry import MetricFamily, MetricsRegistry

__all__ = ["bind_service", "service_families"]


def service_families(service) -> list[MetricFamily]:
    """One service's pull-time metric surface, read from live state."""
    families: list[MetricFamily] = [
        MetricFamily(
            "repro_queue_depth",
            "gauge",
            "Requests waiting in the admission queue",
            (({}, service.queue.depth),),
        ),
        MetricFamily(
            "repro_in_flight",
            "gauge",
            "Requests inside worker batches right now",
            (({}, service.in_flight),),
        ),
        MetricFamily(
            "repro_uptime_seconds",
            "gauge",
            "Seconds since the service was built",
            (({}, service.uptime),),
        ),
    ]
    regimes = service.telemetry.slo("regime", e2e=False)
    for label, prefix, view in (
        ("regime", "repro_slo", regimes),
        ("tenant", "repro_tenant_slo", service.telemetry.slo("tenant", e2e=False)),
    ):
        if view:
            families.append(
                MetricFamily(
                    f"{prefix}_deadline_miss_ratio",
                    "gauge",
                    f"expired / (completed + expired) per {label}",
                    tuple(
                        ({label: value}, slo.deadline_miss_rate)
                        for value, slo in view.items()
                    ),
                )
            )
    first_results = tuple(
        ({"regime": regime}, slo.time_to_first_result)
        for regime, slo in regimes.items()
        if slo.time_to_first_result is not None
    )
    if first_results:
        families.append(
            MetricFamily(
                "repro_slo_time_to_first_result_seconds",
                "gauge",
                "Submit-to-first-completion latency per regime",
                first_results,
            )
        )
    worker_items = service.backend_dispatch_counts()
    if worker_items is not None:
        families.append(
            MetricFamily(
                "repro_worker_items_total",
                "counter",
                "Items dispatched per scheduling worker (thread or pid)",
                tuple(
                    ({"worker": worker}, count)
                    for worker, count in worker_items.items()
                ),
            )
        )
    if service.cache is not None:
        stats = service.cache.stats()
        families += [
            MetricFamily(
                "repro_cache_events_total",
                "counter",
                "Result-cache traffic by event",
                (
                    ({"event": "hit"}, stats.hits),
                    ({"event": "miss"}, stats.misses),
                    ({"event": "coalesced"}, stats.coalesced),
                    ({"event": "eviction"}, stats.evictions),
                ),
            ),
            MetricFamily(
                "repro_cache_size",
                "gauge",
                "Completed results currently cached",
                (({}, stats.size),),
            ),
            MetricFamily(
                "repro_cache_inflight",
                "gauge",
                "Claimed-but-unsettled cache keys (single-flight)",
                (({}, stats.inflight),),
            ),
        ]
    chunk_stats = getattr(type(service.engine.backend), "chunk_stats", None)
    if chunk_stats is not None:
        stats = service.engine.backend.chunk_stats
        families += [
            MetricFamily(
                "repro_backend_chunks_total",
                "counter",
                "Chunks dispatched to scheduling workers",
                (({}, stats["chunks"]),),
            ),
            MetricFamily(
                "repro_backend_chunk_items_total",
                "counter",
                "Items scheduled through worker chunks",
                (({}, stats["items"]),),
            ),
            MetricFamily(
                "repro_backend_chunk_seconds_total",
                "counter",
                "Worker-reported wall seconds across chunks",
                (({}, stats["seconds"]),),
            ),
            MetricFamily(
                "repro_backend_last_chunk_size",
                "gauge",
                "Chunk size the most recent job sharded with",
                (({}, stats["last_chunk_size"] or 0),),
            ),
            MetricFamily(
                "repro_backend_transport_total",
                "counter",
                "Chunk payloads by direction and carrier (pipe, frame)",
                tuple(
                    ({"path": path}, count)
                    for path, count in stats["transport"].items()
                ),
            ),
        ]
    journal = getattr(service, "journal", None)
    if journal is not None:
        jstats = journal.stats()
        families += [
            MetricFamily(
                "repro_journal_records_total",
                "counter",
                "Write-ahead journal records by kind",
                (
                    ({"kind": "admit"}, jstats.admitted),
                    ({"kind": "terminal"}, sum(jstats.terminals.values())),
                ),
            ),
            MetricFamily(
                "repro_journal_bytes_written_total",
                "counter",
                "Bytes appended to the write-ahead journal",
                (({}, jstats.bytes_written),),
            ),
            MetricFamily(
                "repro_journal_fsyncs_total",
                "counter",
                "fsync calls issued by the journal",
                (({}, jstats.fsyncs),),
            ),
            MetricFamily(
                "repro_journal_pending",
                "gauge",
                "Admitted-but-unsettled journal entries (replayed on recover)",
                (({}, jstats.pending),),
            ),
            MetricFamily(
                "repro_journal_segments",
                "gauge",
                "Live journal segment files on disk",
                (({}, jstats.segments),),
            ),
            MetricFamily(
                "repro_journal_checkpoints_total",
                "counter",
                "Watermark checkpoints written",
                (({}, jstats.checkpoints),),
            ),
            MetricFamily(
                "repro_journal_segments_compacted_total",
                "counter",
                "Fully-settled segments deleted by compaction",
                (({}, jstats.compacted),),
            ),
            MetricFamily(
                "repro_journal_torn_tails_total",
                "counter",
                "Torn segment tails truncated during replay",
                (({}, jstats.torn_tails),),
            ),
        ]
    recovery_stats = getattr(service, "recovery_stats", None)
    if recovery_stats is not None:
        rec = recovery_stats()
        families += [
            MetricFamily(
                "repro_recovery_runs_total",
                "counter",
                "recover() invocations on this service",
                (({}, rec["runs"]),),
            ),
            MetricFamily(
                "repro_recovery_requests_total",
                "counter",
                "Journal entries replayed through recovery, by outcome",
                (
                    ({"outcome": "recovered"}, rec["recovered"]),
                    ({"outcome": "failed"}, rec["failed"]),
                ),
            ),
            MetricFamily(
                "repro_recovery_last_replayed",
                "gauge",
                "Entries replayed by the most recent recover()",
                (({}, rec["last_replayed"]),),
            ),
            MetricFamily(
                "repro_recovery_last_duration_seconds",
                "gauge",
                "Wall seconds the most recent recover() took",
                (({}, rec["last_duration"]),),
            ),
        ]
    cluster_stats = getattr(type(service.engine.backend), "cluster_stats", None)
    if cluster_stats is not None:
        stats = service.engine.backend.cluster_stats
        workers = stats["workers"]
        families += [
            MetricFamily(
                "repro_cluster_worker_alive",
                "gauge",
                "Cluster worker connection liveness (1 = connected)",
                tuple(
                    ({"worker": address}, 1 if info["alive"] else 0)
                    for address, info in workers.items()
                ),
            ),
            MetricFamily(
                "repro_cluster_snapshot_ships_total",
                "counter",
                "World snapshots shipped per cluster worker",
                tuple(
                    ({"worker": address}, info["snapshot_ships"])
                    for address, info in workers.items()
                ),
            ),
            MetricFamily(
                "repro_cluster_redispatched_total",
                "counter",
                "Chunks re-dispatched away from a dead cluster worker",
                tuple(
                    ({"worker": address}, info["redispatched"])
                    for address, info in workers.items()
                ),
            ),
            MetricFamily(
                "repro_cluster_refreshes_total",
                "counter",
                "Fleet-wide predictor weight hot-swaps",
                (({}, stats["refreshes"]),),
            ),
        ]
    return families


def bind_service(registry: MetricsRegistry, service) -> None:
    """Export ``service`` through ``registry`` as a pull-time collector."""
    registry.register_collector(lambda: service_families(service))
