"""The observability layer: registry, traces, instrumentation, endpoint."""

import json
import logging
import multiprocessing
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.engine import ClusterConfig, LabelingEngine, ProcessConfig
from repro.obs import (
    MetricFamily,
    MetricsRegistry,
    TraceBuffer,
    batch_observer,
    install,
    installed,
    service_families,
    uninstall,
)
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import (
    DeadlineExpired,
    LabelingService,
    LabelingSpec,
    ServiceTelemetry,
)
from repro.serving.gateway import LabelingGateway, TenantDirectory


@pytest.fixture(scope="module")
def predictor(zoo, space):
    # Observability semantics do not depend on agent quality; an untrained
    # network keeps this module independent of the slow trained fixture.
    agent = make_agent(
        "dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1, hidden_size=32
    )
    return AgentPredictor(agent, len(zoo))


@pytest.fixture(scope="module")
def engine(zoo, predictor, world_config):
    return LabelingEngine(zoo, predictor, world_config)


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:24]


@pytest.fixture(autouse=True)
def _clean_instrumentation():
    # Instrumentation is process-global; never leak it across tests.
    uninstall()
    yield
    uninstall()


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "Requests")
        requests.inc()
        requests.inc(4)
        depth = registry.gauge("depth", "Depth")
        depth.set(7)
        depth.dec(2)
        latency = registry.histogram("latency_seconds", "Latency")
        for value in (0.1, 0.2, 0.3):
            latency.observe(value)
        text = registry.render_prometheus()
        assert "requests_total 5" in text
        assert "depth 5" in text
        assert 'latency_seconds{quantile="0.5"} 0.2' in text
        assert "latency_seconds_count 3" in text
        assert "latency_seconds_sum" in text

    def test_labeled_children_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("ticks", "Ticks", labelnames=("regime",))
        counter.labels(regime="qgreedy").inc(2)
        counter.labels(regime="deadline").inc(3)
        text = registry.render_prometheus()
        assert 'ticks{regime="qgreedy"} 2' in text
        assert 'ticks{regime="deadline"} 3' in text

    def test_reregistration_same_kind_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("again", "Again")
        assert registry.counter("again", "Again") is first

    def test_reregistration_with_other_kind_raises(self):
        registry = MetricsRegistry()
        registry.counter("clash", "Clash")
        with pytest.raises(ValueError, match="clash"):
            registry.gauge("clash", "Clash")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc", "Esc", labelnames=("who",))
        counter.labels(who='a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert 'esc{who="a\\"b\\\\c\\nd"} 1' in text

    def test_failing_collector_is_skipped(self, caplog):
        registry = MetricsRegistry()
        registry.counter("fine", "Fine").inc()
        registry.register_collector(lambda: 1 / 0)
        registry.register_collector(
            lambda: [MetricFamily("also_fine", "gauge", "", (({}, 2),))]
        )
        with caplog.at_level(logging.ERROR, logger="repro.obs.registry"):
            text = registry.render_prometheus()
        # the scrape survives with every other family, and says what broke
        assert "fine 1" in text
        assert "also_fine 2" in text
        (record,) = caplog.records
        assert "collector" in record.getMessage()
        assert record.exc_info[0] is ZeroDivisionError

    def test_json_snapshot_matches_families(self):
        registry = MetricsRegistry()
        registry.counter("n", "N").inc(2)
        payload = json.loads(registry.render_json())
        assert payload["n"]["kind"] == "counter"
        assert payload["n"]["samples"][0]["value"] == 2


class TestTraceBuffer:
    def test_span_lifecycle_and_tail(self):
        buffer = TraceBuffer(capacity=4)
        trace = buffer.start("item-1", "qgreedy")
        trace.add("queued")
        trace.add("batched", reason="size", size=8)
        trace.add("scheduled", worker="w0")
        buffer.finish(trace, "completed")
        (exported,) = buffer.tail()
        stages = [event["stage"] for event in exported["events"]]
        assert stages == ["queued", "batched", "scheduled", "completed"]
        assert exported["status"] == "completed"
        assert exported["events"][1]["detail"] == {"reason": "size", "size": 8}

    def test_unknown_terminal_stage_raises(self):
        buffer = TraceBuffer()
        trace = buffer.start("item-1", "qgreedy")
        with pytest.raises(ValueError, match="terminal"):
            buffer.finish(trace, "vanished")

    def test_ring_evicts_oldest(self):
        buffer = TraceBuffer(capacity=2)
        for index in range(5):
            buffer.finish(buffer.start(f"item-{index}", "qgreedy"), "completed")
        assert len(buffer) == 2
        assert buffer.finished == 5
        assert buffer.dropped == 3
        assert [t["item_id"] for t in buffer.tail()] == ["item-3", "item-4"]

    def test_to_json_roundtrip(self):
        buffer = TraceBuffer(capacity=2)
        buffer.finish(buffer.start("item-1", "deadline"), "expired")
        payload = json.loads(buffer.to_json())
        assert payload["finished"] == 1
        assert payload["traces"][0]["status"] == "expired"


class TestTraceCommand:
    """``repro.cli trace`` renders the exported span schema."""

    @pytest.fixture()
    def export(self, tmp_path):
        buffer = TraceBuffer(capacity=4)
        for item_id in ("item-1", "item-2"):
            trace = buffer.start(item_id, "deadline")
            trace.add("batched", reason="size", size=2)
            buffer.finish(trace, "completed")
        path = tmp_path / "traces.json"
        path.write_text(buffer.to_json())
        return str(path)

    def test_file_tail_prints_the_newest_span_then_a_summary(self, export, capsys):
        assert main(["trace", "--file", export, "--limit", "1"]) == 0
        line, summary = capsys.readouterr().out.splitlines()
        assert line.startswith("#2 item-2 regime=deadline status=completed ")
        assert "batched(size)+" in line and "completed+" in line
        assert summary == "2 finished trace(s), 0 dropped from a ring of 4"

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--url", "http://127.0.0.1:9", "--file", "traces.json"],
            ["--file", "traces.json", "--follow"],
        ],
        ids=["no-source", "both-sources", "follow-without-url"],
    )
    def test_argument_errors_exit_2(self, argv, capsys):
        assert main(["trace", *argv]) == 2
        assert capsys.readouterr().err


class TestInstrumentation:
    def test_bare_path_returns_none(self):
        assert installed() is None
        assert batch_observer("qgreedy", 8) is None

    def test_install_routes_ticks_into_registry(self):
        registry = MetricsRegistry()
        install(registry)
        observer = batch_observer("qgreedy", 8)
        observer.tick(0.002, 8)
        observer.tick(0.001, 5)
        observer.done()
        text = registry.render_prometheus()
        assert 'repro_sched_batches_total{regime="qgreedy"} 1' in text
        assert 'repro_sched_rounds_total{regime="qgreedy"} 2' in text
        assert 'repro_sched_models_executed_total{regime="qgreedy"} 13' in text
        assert 'repro_sched_batch_items_total{regime="qgreedy"} 8' in text

    def test_install_idempotent_and_uninstall_restores_bare(self):
        registry = MetricsRegistry()
        first = install(registry)
        assert install(registry) is first
        uninstall()
        assert installed() is None

    def test_schedulers_record_per_regime(self, engine, truth, items):
        registry = MetricsRegistry()
        install(registry)
        subset = items[:6]
        engine.label_batch(subset, LabelingSpec(), truth=truth)
        engine.label_batch(subset, LabelingSpec(deadline=0.5), truth=truth)
        engine.label_batch(
            subset,
            LabelingSpec(deadline=0.5, memory_budget=8000.0),
            truth=truth,
        )
        text = registry.render_prometheus()
        for regime in ("qgreedy", "deadline", "deadline_memory"):
            assert f'repro_sched_batches_total{{regime="{regime}"}} 1' in text
            assert f'repro_engine_items_total{{backend="BatchedBackend",regime="{regime}"}} 6' in text
        # Unconstrained Q-greedy executes every model on every item.
        zoo_size = len(engine.zoo)
        assert (
            f'repro_sched_models_executed_total{{regime="qgreedy"}} '
            f"{6 * zoo_size}" in text
        )


DEMO_KEY = {"X-API-Key": "demo-key-tenant-0"}


def obs_listener(engine, dataset, registry=None, tracer=None) -> LabelingGateway:
    """The one HTTP stack that serves the obs routes: a gateway listener
    (here over a never-started service — scrapes need no dispatcher)."""
    service = LabelingService(engine, registry=registry, tracer=tracer)
    return LabelingGateway(service, TenantDirectory.demo(1), dataset)


class TestMetricsServer:
    """The obs routes as served by the gateway's asyncio listener."""

    def test_endpoints(self, engine, dataset):
        registry = MetricsRegistry()
        registry.counter("up", "Up").inc()
        tracer = TraceBuffer()
        tracer.finish(tracer.start("item-1", "qgreedy"), "completed")
        with obs_listener(engine, dataset, registry, tracer) as server:
            base = server.url
            text = urllib.request.urlopen(f"{base}/metrics").read().decode()
            assert "up 1" in text
            as_json = json.load(urllib.request.urlopen(f"{base}/metrics.json"))
            assert as_json["up"]["samples"][0]["value"] == 1
            traces = json.load(urllib.request.urlopen(f"{base}/traces?n=5"))
            assert traces["finished"] == 1
            health = urllib.request.urlopen(f"{base}/healthz").read().decode()
            assert health.strip() == "ok"
            # unknown paths are not obs routes: they sit behind auth
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(f"{base}/nope")
            assert caught.value.code == 401
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(
                    urllib.request.Request(f"{base}/nope", headers=DEMO_KEY)
                )
            assert caught.value.code == 404

    def test_traces_404_without_tracer(self, engine, dataset):
        with obs_listener(engine, dataset) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(f"{server.url}/traces")
            assert caught.value.code == 404

    def test_concurrent_scrapes(self, engine, dataset):
        registry = MetricsRegistry()
        registry.counter("c", "C").inc()
        errors: list[Exception] = []

        def scrape(url: str) -> None:
            try:
                for _ in range(5):
                    urllib.request.urlopen(url).read()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        with obs_listener(engine, dataset, registry) as server:
            threads = [
                threading.Thread(target=scrape, args=(f"{server.url}/metrics",))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestServiceIntegration:
    def test_service_exports_families_and_traces(self, engine, truth, items):
        registry = MetricsRegistry()
        tracer = TraceBuffer(capacity=64)
        install(registry)
        service = LabelingService(
            engine,
            batch_size=8,
            truth=truth,
            registry=registry,
            tracer=tracer,
            cache_size=64,
        )
        with service:
            futures = service.submit_many(items[:12])
            repeat = service.submit(items[0])  # coalesces or hits the cache
            for future in futures + [repeat]:
                future.result(timeout=10)
        text = registry.render_prometheus()
        assert 'repro_requests_total{outcome="completed"} 12' in text
        assert 'repro_slo_completed_total{regime="qgreedy"} 12' in text
        assert "repro_slo_deadline_miss_ratio" in text
        assert "repro_slo_time_to_first_result_seconds" in text
        assert "repro_queue_wait_seconds_count 12" in text
        assert "repro_cache_events_total" in text
        assert 'repro_sched_batches_total{regime="qgreedy"}' in text
        # Every settled request left a finished span with the full path.
        finished = tracer.tail()
        assert len(finished) == 13
        completed = [t for t in finished if t["status"] == "completed"]
        assert len(completed) == 12
        stages = [event["stage"] for event in completed[0]["events"]]
        assert stages == [
            "admitted", "queued", "batched", "scheduled", "completed",
        ]
        shortcut = [t for t in finished if t["status"] != "completed"]
        assert shortcut[0]["status"] in ("cache_hit", "coalesced")

    @pytest.mark.parametrize("entry", ["submit", "submit_many"])
    def test_expired_requests_count_against_slo(self, engine, truth, items, entry):
        # Impossible-deadline items settle through _resolve whichever
        # entry point carried them, so they land in the SLO accumulator
        # as deadline misses.
        min_cost = float(engine.zoo.times.min())
        service = LabelingService(
            engine, batch_size=4, truth=truth, spec=LabelingSpec(deadline=0.5)
        )
        with service:
            if entry == "submit":
                for item in items[:2]:
                    with pytest.raises(DeadlineExpired):
                        service.submit(item, deadline=min_cost / 2)
            else:
                for future in service.submit_many(
                    items[:2], deadline=min_cost / 2
                ):
                    with pytest.raises(DeadlineExpired):
                        future.result(timeout=10)
        slo = service.snapshot().slo["deadline"]
        assert slo.expired == 2
        assert slo.completed == 0
        assert slo.deadline_miss_rate == 1.0

    def test_families_without_server(self, engine, truth, items):
        service = LabelingService(engine, batch_size=8, truth=truth)
        with service:
            for future in service.submit_many(items[:4]):
                future.result(timeout=10)
        # owned families are in the service's private registry; the
        # bridge adds only the pull-time ones
        pulled = {family.name for family in service_families(service)}
        assert {"repro_queue_depth", "repro_in_flight"} <= pulled
        assert "repro_requests_total" not in pulled
        assert {
            "repro_requests_total",
            "repro_batches_total",
            "repro_queue_depth",
            "repro_in_flight",
            "repro_slo_completed_total",
        } <= set(service.registry.snapshot())


def mp_context():
    method = os.environ.get("REPRO_MP_CONTEXT")
    return multiprocessing.get_context(method) if method else None


def samples(snapshot, name):
    return {
        tuple(sorted(row["labels"].items())): row["value"]
        for row in snapshot[name]["samples"]
    }


class TestShardedBackendFamilies:
    """The bridge's worker, chunk, transport and cluster rows."""

    def scrape(self, engine, items, backend):
        """The registry snapshot and the backend's own stats, both read
        before the backend is closed."""
        engine = LabelingEngine(
            engine.zoo, engine.predictor, engine.world_config, backend=backend
        )
        registry = MetricsRegistry()
        service = LabelingService(
            engine, batch_size=8, max_wait=0.005, registry=registry
        )
        try:
            with service:
                for future in service.submit_many(items):
                    future.result(timeout=60)
                service.drain()
                backend = engine.backend
                cluster = getattr(backend, "cluster_stats", None)
                return registry.snapshot(), backend.chunk_stats, cluster
        finally:
            engine.backend.close()

    def test_process_pool_rows_match_the_backend(self, engine, items):
        snapshot, stats, _ = self.scrape(
            engine, items[:16], ProcessConfig(max_workers=2, mp_context=mp_context())
        )
        assert sum(samples(snapshot, "repro_worker_items_total").values()) == 16
        assert stats["chunks"] > 0
        for name, key in (
            ("repro_backend_chunks_total", "chunks"),
            ("repro_backend_chunk_items_total", "items"),
            ("repro_backend_chunk_seconds_total", "seconds"),
            ("repro_backend_last_chunk_size", "last_chunk_size"),
        ):
            assert samples(snapshot, name) == {(): stats[key]}
        assert samples(snapshot, "repro_backend_transport_total") == {
            (("path", path),): count for path, count in stats["transport"].items()
        }
        assert "repro_cluster_worker_alive" not in snapshot

    def test_cluster_workers_report_alive(self, engine, items):
        snapshot, _, cluster = self.scrape(
            engine, items[:16], ClusterConfig(local_workers=2, mp_context=mp_context())
        )
        assert sum(samples(snapshot, "repro_worker_items_total").values()) == 16
        assert len(cluster["workers"]) == 2
        assert samples(snapshot, "repro_cluster_worker_alive") == {
            (("worker", address),): 1 for address in cluster["workers"]
        }


class TestTelemetryValidation:
    def test_unknown_counter_raises_value_error(self):
        telemetry = ServiceTelemetry()
        with pytest.raises(ValueError, match="completed"):
            telemetry.count("not_a_counter")

    def test_unknown_flush_reason_raises_value_error(self):
        telemetry = ServiceTelemetry()
        with pytest.raises(ValueError, match="regime_split"):
            telemetry.observe_flush(4, "panic")

    def test_unknown_outcome_raises_value_error(self):
        telemetry = ServiceTelemetry()
        with pytest.raises(ValueError, match="expired"):
            telemetry.observe_outcome("qgreedy", "vanished")

    def test_valid_names_still_count(self):
        telemetry = ServiceTelemetry()
        telemetry.count("completed", 2)
        telemetry.observe_flush(4, "size", regime="qgreedy")
        snapshot = telemetry.snapshot()
        assert snapshot.counters["completed"] == 2
        assert snapshot.flushes["size"] == 1


class TestLatencyHistogramEdges:
    """Edges of the registry's reservoir histogram (the only one)."""

    @staticmethod
    def histogram(capacity: int):
        return MetricsRegistry().histogram("h", capacity=capacity).labels()

    def test_capacity_one_keeps_exactly_one_sample(self):
        histogram = self.histogram(1)
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        count, total, quantiles = histogram.summary()
        assert (count, total) == (4, 10.0)
        assert quantiles[0.5] in (1.0, 2.0, 3.0, 4.0)

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", capacity=0)

    def test_post_capacity_replacement_bounds_reservoir(self):
        histogram = self.histogram(8)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert len(histogram._samples) == 8
        assert histogram.summary()[0] == 100

    def test_seeded_reservoirs_reproduce(self):
        def fill():
            histogram = self.histogram(4)
            for value in range(50):
                histogram.observe(float(value))
            return histogram.summary()

        assert fill() == fill()

    def test_exported_sum_is_exact_and_monotonic_past_capacity(self, monkeypatch):
        # ``_sum`` is the running total of every observation, not
        # reservoir_mean x count: once the reservoir overflows it must
        # still equal the exact sum and never go down between scrapes.
        monkeypatch.setattr("repro.serving.telemetry._RESERVOIR", 4)
        registry = MetricsRegistry()
        telemetry = ServiceTelemetry(registry)
        exact = previous = 0.0
        for i in range(200):
            value = 0.01 if i % 10 else 3.0  # skewed: rare large values
            telemetry.observe_queue_wait(value)
            exact += value
            families = registry.snapshot()
            (sample,) = families["repro_queue_wait_seconds_sum"]["samples"]
            assert sample["value"] >= previous
            previous = sample["value"]
        assert previous == pytest.approx(exact)
        stats = telemetry.snapshot().queue_wait
        assert stats.count == 200
        assert stats.mean == pytest.approx(exact / 200)
        assert len(telemetry._queue_wait._samples) == 4
