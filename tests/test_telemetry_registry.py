"""One metrics model: the service telemetry *is* its registry families.

Two contracts hold the collapse together: the exported catalog (family
names, kinds, label keys) is what dashboards, the perf ledger's
``/metrics.json`` readers and ``bench_obs_overhead.py --scrape-url``
depend on, and ``ServiceTelemetry.snapshot()`` must agree with a registry
scrape on every number because both read the same series.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import LabelingEngine
from repro.obs import MetricsRegistry
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import LabelingService, LabelingSpec, QueueFull, ServiceTelemetry
from repro.serving.telemetry import COUNTERS, FLUSH_REASONS, SLO_OUTCOMES

#: (family, kind, label keys) exported after the mini workload below, as
#: recorded at commit b87cded — before the service wrote into the registry —
#: less the four segment/checkpoint journal families the sqlite journal dropped.
GOLDEN_CATALOG = [
    ("repro_batched_items_total", "counter", ()),
    ("repro_batches_total", "counter", ("reason",)),
    ("repro_cache_events_total", "counter", ("event",)),
    ("repro_cache_inflight", "gauge", ()),
    ("repro_cache_size", "gauge", ()),
    ("repro_in_flight", "gauge", ()),
    ("repro_journal_bytes_written_total", "counter", ()),
    ("repro_journal_fsyncs_total", "counter", ()),
    ("repro_journal_pending", "gauge", ()),
    ("repro_journal_records_total", "counter", ("kind",)),
    ("repro_queue_depth", "gauge", ()),
    ("repro_queue_wait_seconds", "summary", ("quantile",)),
    ("repro_queue_wait_seconds_count", "counter", ()),
    ("repro_queue_wait_seconds_sum", "counter", ()),
    ("repro_recovery_last_duration_seconds", "gauge", ()),
    ("repro_recovery_last_replayed", "gauge", ()),
    ("repro_recovery_requests_total", "counter", ("outcome",)),
    ("repro_recovery_runs_total", "counter", ()),
    ("repro_regime_items_total", "counter", ("regime",)),
    ("repro_requests_total", "counter", ("outcome",)),
    ("repro_service_time_seconds", "summary", ("quantile",)),
    ("repro_service_time_seconds_count", "counter", ()),
    ("repro_service_time_seconds_sum", "counter", ()),
    ("repro_slo_completed_total", "counter", ("regime",)),
    ("repro_slo_deadline_miss_ratio", "gauge", ("regime",)),
    ("repro_slo_e2e_seconds", "summary", ("quantile", "regime")),
    ("repro_slo_e2e_seconds_count", "counter", ("regime",)),
    ("repro_slo_e2e_seconds_sum", "counter", ("regime",)),
    ("repro_slo_expired_total", "counter", ("regime",)),
    ("repro_slo_failed_total", "counter", ("regime",)),
    ("repro_slo_time_to_first_result_seconds", "gauge", ("regime",)),
    ("repro_tenant_queue_wait_seconds", "summary", ("quantile", "tenant")),
    ("repro_tenant_queue_wait_seconds_count", "counter", ("tenant",)),
    ("repro_tenant_queue_wait_seconds_sum", "counter", ("tenant",)),
    ("repro_tenant_slo_completed_total", "counter", ("tenant",)),
    ("repro_tenant_slo_deadline_miss_ratio", "gauge", ("tenant",)),
    ("repro_tenant_slo_e2e_seconds", "summary", ("quantile", "tenant")),
    ("repro_tenant_slo_e2e_seconds_count", "counter", ("tenant",)),
    ("repro_tenant_slo_e2e_seconds_sum", "counter", ("tenant",)),
    ("repro_tenant_slo_expired_total", "counter", ("tenant",)),
    ("repro_tenant_slo_failed_total", "counter", ("tenant",)),
    ("repro_uptime_seconds", "gauge", ()),
    ("repro_worker_items_total", "counter", ("worker",)),
]


def sample_value(families: dict, name: str, **labels) -> float:
    """The one sample of ``name`` carrying exactly ``labels``."""
    (value,) = [
        sample["value"]
        for sample in families[name]["samples"]
        if sample["labels"] == labels
    ]
    return value


@pytest.fixture(scope="module")
def engine(zoo, space, world_config):
    agent = make_agent(
        "dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1, hidden_size=32
    )
    return LabelingEngine(zoo, AgentPredictor(agent, len(zoo)), world_config)


class TestGoldenCatalog:
    def test_exported_catalog_is_unchanged(self, engine, truth, splits, tmp_path):
        items = splits[1].items[:4]
        registry = MetricsRegistry()
        service = LabelingService(
            engine,
            batch_size=2,
            max_depth=2,
            overflow="reject",
            truth=truth,
            cache_size=16,
            journal=tmp_path / "wal",
            registry=registry,
        )
        # Two admissions fill the queue (one carries a tenant, so the
        # per-tenant families have a series), the third is rejected.
        futures = [
            service.submit(items[0]),
            service.submit(items[1], LabelingSpec(deadline=0.5, tenant="acme")),
        ]
        with pytest.raises(QueueFull):
            service.submit(items[2])
        with service:
            for future in futures:
                future.result(timeout=10)
            (doomed,) = service.submit_many(
                [items[3]], deadline=float(engine.zoo.times.min()) / 2
            )
            assert doomed.exception(timeout=10) is not None
        families = registry.snapshot()
        catalog = sorted(
            (
                name,
                family["kind"],
                tuple(sorted({k for s in family["samples"] for k in s["labels"]})),
            )
            for name, family in families.items()
        )
        assert catalog == GOLDEN_CATALOG
        # Fixed-label series export at zero, not only once they move.
        for outcome in COUNTERS:
            sample_value(families, "repro_requests_total", outcome=outcome)
        for reason in FLUSH_REASONS:
            sample_value(families, "repro_batches_total", reason=reason)
        assert sample_value(families, "repro_requests_total", outcome="failed") == 0
        assert sample_value(families, "repro_requests_total", outcome="rejected") == 1
        assert sample_value(families, "repro_requests_total", outcome="expired") == 1
        assert sample_value(families, "repro_batches_total", reason="drain") == 0


LABELS = st.sampled_from(["a", "b", "c"])
SECONDS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("count"), st.sampled_from(COUNTERS), st.integers(0, 5)),
        st.tuples(
            st.just("observe_flush"),
            st.integers(0, 64),
            st.sampled_from(FLUSH_REASONS),
            st.none() | LABELS,
        ),
        st.tuples(st.just("observe_queue_wait"), SECONDS, st.none() | LABELS),
        st.tuples(
            st.just("observe_outcome"),
            LABELS,
            st.sampled_from(SLO_OUTCOMES),
            st.none() | SECONDS,
            st.none() | LABELS,
        ),
    ),
    max_size=60,
)
SLO_VIEWS = (
    ("repro_slo", "regime", "slo"),
    ("repro_tenant_slo", "tenant", "tenant_slo"),
)


def by_label(families: dict, name: str, label: str) -> dict[str, float]:
    return {s["labels"][label]: s["value"] for s in families[name]["samples"]}


class TestSnapshotAgreesWithRegistry:
    @settings(max_examples=60, deadline=None)
    @given(OPERATIONS)
    def test_every_number_is_read_from_the_same_series(self, operations):
        registry = MetricsRegistry()
        telemetry = ServiceTelemetry(registry)
        #: (summary family, *label pair) -> the values the test fed it
        fed: dict[tuple, list[float]] = {}
        for name, *args in operations:
            getattr(telemetry, name)(*args)
            if name == "observe_queue_wait":
                seconds, tenant = args
                fed.setdefault(("repro_queue_wait_seconds",), []).append(seconds)
                if tenant is not None:
                    key = ("repro_tenant_queue_wait_seconds", "tenant", tenant)
                    fed.setdefault(key, []).append(seconds)
            elif name == "observe_outcome":
                regime, outcome, seconds, tenant = args
                if outcome == "completed" and seconds is not None:
                    fed.setdefault(
                        ("repro_slo_e2e_seconds", "regime", regime), []
                    ).append(seconds)
                    if tenant is not None:
                        key = ("repro_tenant_slo_e2e_seconds", "tenant", tenant)
                        fed.setdefault(key, []).append(seconds)
        snap = telemetry.snapshot()
        families = registry.snapshot()

        assert snap.counters == by_label(families, "repro_requests_total", "outcome")
        assert snap.flushes == by_label(families, "repro_batches_total", "reason")
        assert snap.batched_items == sample_value(families, "repro_batched_items_total")
        assert snap.regimes == by_label(families, "repro_regime_items_total", "regime")
        summaries = {("repro_queue_wait_seconds",): snap.queue_wait}
        for tenant, stats in snap.tenant_queue_wait.items():
            summaries[("repro_tenant_queue_wait_seconds", "tenant", tenant)] = stats
        for prefix, label, field in SLO_VIEWS:
            view = getattr(snap, field)
            for outcome in SLO_OUTCOMES:
                counts = {value: getattr(slo, outcome) for value, slo in view.items()}
                assert counts == by_label(families, f"{prefix}_{outcome}_total", label)
            for value, slo in view.items():
                summaries[(f"{prefix}_e2e_seconds", label, value)] = slo.e2e

        assert {key for key, stats in summaries.items() if stats.count} == set(fed)
        for (name, *label), stats in summaries.items():
            labels = dict([label]) if label else {}
            values = fed.get((name, *label), [])
            assert stats.count == len(values)
            assert stats.count == sample_value(families, f"{name}_count", **labels)
            total = sample_value(families, f"{name}_sum", **labels)
            assert total == pytest.approx(sum(values))
            if not values:
                continue
            assert stats.mean == pytest.approx(total / stats.count)
            assert stats.max == max(values)
            # count <= capacity here, so the reservoir is the population
            for q, got in ((50, stats.p50), (95, stats.p95), (99, stats.p99)):
                assert got == pytest.approx(np.percentile(values, q))
                exported = sample_value(
                    families, name, **labels, quantile=str(q / 100)
                )
                assert got == exported


class TestConcurrentWriters:
    def test_no_update_is_lost_while_labels_appear_and_snapshots_run(self):
        # Writers race on first sight of each label (the child cache's
        # miss path) while a reader snapshots; every increment must land.
        telemetry = ServiceTelemetry()
        writers, rounds = 8, 1500
        done = threading.Event()
        errors: list[BaseException] = []

        def write(index: int) -> None:
            try:
                for i in range(rounds):
                    regime, tenant = f"r{i % 7}", f"t{(i + index) % 5}"
                    telemetry.count("completed")
                    telemetry.observe_flush(2, "size", regime=regime)
                    telemetry.observe_queue_wait(0.001, tenant=tenant)
                    telemetry.observe_outcome(
                        regime, "completed", 0.002, tenant=tenant
                    )
                    telemetry.observe_dispatch(f"w{index}", 2)
            except BaseException as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def read() -> None:
            try:
                while not done.is_set():
                    telemetry.snapshot()
                    telemetry.registry.snapshot()
            except BaseException as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=write, args=(i,)) for i in range(writers)
            ]
            reader = threading.Thread(target=read)
            for thread in [reader, *threads]:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in [reader, *threads])
        assert errors == []
        total = writers * rounds
        snap = telemetry.snapshot()
        assert snap.counters["completed"] == total
        assert snap.flushes["size"] == total
        assert snap.batched_items == sum(snap.regimes.values()) == 2 * total
        assert sum(snap.workers.values()) == 2 * total
        assert snap.queue_wait.count == total
        assert sum(s.count for s in snap.tenant_queue_wait.values()) == total
        for view in (snap.slo, snap.tenant_slo):
            assert sum(slo.completed for slo in view.values()) == total
            assert sum(slo.e2e.count for slo in view.values()) == total
            assert all(slo.time_to_first_result == 0.002 for slo in view.values())
