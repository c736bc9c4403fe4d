"""The serving tier: micro-batch flushes, admission, lifecycle, telemetry."""

import threading
import time

import pytest

from repro.engine import LabelingEngine
from repro.obs import MetricsRegistry, TraceBuffer
from repro.rl.agents import make_agent
from repro.zoo.oracle import GroundTruth
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import (
    DeadlineExpired,
    LabelingRequest,
    LabelingService,
    LabelingSpec,
    QueueFull,
    RequestQueue,
    ServiceStopped,
    ServiceTelemetry,
)


@pytest.fixture(scope="module")
def predictor(zoo, space):
    # Serving semantics do not depend on agent quality; an untrained
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


@pytest.fixture(scope="module")
def min_cost(zoo):
    return float(zoo.times.min())


def service_for(engine, truth, **kwargs):
    kwargs.setdefault("spec", LabelingSpec(deadline=0.35))
    return LabelingService(engine, truth=truth, **kwargs)


def request_for(item, **kwargs):
    return LabelingRequest(item=item, **kwargs)


class TestMicroBatchFlush:
    def test_size_triggered_flush(self, engine, truth, items):
        # Requests queued before start() + a long flush timer: every flush
        # must be size-triggered, in exactly ceil(8/4) batches.
        service = service_for(engine, truth, batch_size=4, max_wait=5.0)
        futures = service.submit_many(items[:8])
        with service:
            results = [f.result(timeout=10) for f in futures]
        assert [r.item_id for r in results] == [i.item_id for i in items[:8]]
        snapshot = service.snapshot()
        assert snapshot.counters["submitted"] == 8
        assert snapshot.counters["completed"] == 8
        assert snapshot.flushes == {
            "size": 2, "wait": 0, "drain": 0, "regime_split": 0,
        }
        assert snapshot.batched_items == 8
        assert snapshot.mean_batch_size == 4.0

    def test_wait_triggered_flush(self, engine, truth, items):
        # An underfull batch must flush once max_wait elapses, not hang
        # until batch_size arrives.
        service = service_for(engine, truth, batch_size=64, max_wait=0.03)
        with service:
            futures = service.submit_many(items[:3])
            results = [f.result(timeout=10) for f in futures]
        assert len(results) == 3
        snapshot = service.snapshot()
        assert snapshot.counters["completed"] == 3
        assert snapshot.flushes["size"] == 0
        assert snapshot.flushes["wait"] + snapshot.flushes["drain"] >= 1

    def test_results_match_direct_engine_dispatch(self, engine, truth, items):
        # The serving layer adds queueing, not semantics: futures must
        # resolve to traces identical to a direct engine call.
        service = service_for(engine, truth, batch_size=8, max_wait=0.01)
        with service:
            futures = service.submit_many(items)
            served = [f.result(timeout=10) for f in futures]
        direct = engine.label_batch(items, LabelingSpec(deadline=0.35), truth=truth)
        for got, ref in zip(served, direct):
            assert got.item_id == ref.item_id
            assert got.trace.executions == ref.trace.executions
            assert got.label_names == ref.label_names

    def test_service_validation(self, engine, truth):
        with pytest.raises(ValueError, match="batch_size"):
            LabelingService(engine, batch_size=0)
        with pytest.raises(ValueError, match="max_wait"):
            LabelingService(engine, max_wait=-0.1)
        with pytest.raises(ValueError, match="workers"):
            LabelingService(engine, workers=0)


class TestSharedTruthLifecycle:
    def test_unrecorded_items_run_in_bounded_memory(
        self, engine, zoo, world_config, items
    ):
        # Empty shared cache + duplicate submissions across batches on
        # several workers: the refcounted record/release path must neither
        # double-record nor evict a record a concurrent batch still needs,
        # and must leave the cache empty afterwards.
        shared = GroundTruth(zoo, [], world_config)
        service = LabelingService(
            engine, truth=shared, batch_size=3, max_wait=0.005,
            workers=3, spec=LabelingSpec(deadline=0.35),
        )
        with service:
            futures = service.submit_many(items[:12]) + service.submit_many(
                items[:12]
            )
            results = [f.result(timeout=10) for f in futures]
        assert [r.item_id for r in results] == [
            i.item_id for i in items[:12]
        ] * 2
        assert service.snapshot().counters["failed"] == 0
        assert len(shared) == 0

    def test_caller_recorded_items_are_never_evicted(
        self, engine, zoo, world_config, items
    ):
        shared = GroundTruth(zoo, items[:2], world_config)
        service = service_for(engine, shared, batch_size=4, workers=2)
        with service:
            futures = service.submit_many(items[:6])
            [f.result(timeout=10) for f in futures]
        assert set(shared.item_ids) == {item.item_id for item in items[:2]}


class TestPriorityAdmission:
    def test_same_bucket_pops_fifo_regardless_of_priority(self, items):
        # Priorities weight a bucket's service *rate*; they no longer
        # reorder requests inside one bucket (spec-less requests all share
        # the None-key bucket), so pops are strictly FIFO here.
        queue = RequestQueue(max_depth=16)
        for i, item in enumerate(items[:9]):
            queue.put(request_for(item, priority=i % 3))
        popped = []
        for _ in range(3):
            batch, expired, reason = queue.pop_batch(3, 0.0)
            assert expired == [] and reason in ("size", "wait")
            popped.append([r.item.item_id for r in batch])
        assert popped == [
            [items[i].item_id for i in (0, 1, 2)],
            [items[i].item_id for i in (3, 4, 5)],
            [items[i].item_id for i in (6, 7, 8)],
        ]

    def test_service_interleaves_priority_buckets_by_weight(
        self, engine, truth, items
    ):
        # Two regimes, high priority submitted first: weighted fairness
        # serves the low-priority bucket on the second dispatch instead of
        # draining the high-priority backlog first (the legacy grouper
        # would dispatch high, high, low, low).  One worker serializes
        # batches so the dispatch log shows the queue's ordering.
        service = service_for(
            engine, truth, batch_size=4, max_wait=5.0, workers=1, spec=None
        )
        dispatched = []
        inner = service._label_batch
        service._label_batch = lambda batch, spec: (
            dispatched.append([i.item_id for i in batch]),
            inner(batch, spec),
        )[1]
        high = LabelingSpec(priority=2)
        low = LabelingSpec(deadline=0.35, priority=0)
        futures = [service.submit(item, high) for item in items[:8]]
        futures += [service.submit(item, low) for item in items[8:16]]
        with service:
            for future in futures:
                future.result(timeout=10)
        # stride order: high pays 4/2**2=1 per batch, low pays 4/2**0=4
        assert dispatched == [
            [i.item_id for i in items[0:4]],  # high (FIFO tie-break)
            [i.item_id for i in items[8:12]],  # low's turn: pass 0 < 1
            [i.item_id for i in items[4:8]],  # high again: pass 1 < 4
            [i.item_id for i in items[12:16]],  # low drains last
        ]


class TestBackpressure:
    def test_reject_policy_raises_and_counts(self, engine, truth, items):
        service = service_for(
            engine, truth, batch_size=2, max_depth=2, overflow="reject"
        )
        service.submit(items[0])
        service.submit(items[1])
        with pytest.raises(QueueFull):
            service.submit(items[2])
        snapshot = service.snapshot()
        assert snapshot.counters["rejected"] == 1
        assert snapshot.counters["submitted"] == 2
        assert snapshot.queue_depth == 2
        with service:
            pass  # drain + shutdown: the two admitted items still complete
        assert service.snapshot().counters["completed"] == 2

    def test_block_policy_times_out(self, items):
        queue = RequestQueue(max_depth=1, overflow="block")
        queue.put(request_for(items[0]))
        start = time.monotonic()
        with pytest.raises(QueueFull, match="stayed at max depth"):
            queue.put(request_for(items[1]), timeout=0.05)
        assert time.monotonic() - start >= 0.04

    def test_block_policy_admits_when_space_frees(self, engine, truth, items):
        # A producer blocked on a full queue must unblock once the
        # dispatcher drains it, without errors.
        service = service_for(
            engine, truth, batch_size=2, max_wait=0.005, max_depth=2
        )
        with service:
            futures = [
                service.submit(item, timeout=5.0) for item in items[:10]
            ]
            results = [f.result(timeout=10) for f in futures]
        assert len(results) == 10
        assert service.snapshot().counters["completed"] == 10


class TestDeadlineAdmission:
    def test_impossible_deadline_rejected_at_submit(
        self, engine, truth, items, min_cost
    ):
        service = service_for(engine, truth)
        with pytest.raises(DeadlineExpired, match="cheapest"):
            service.submit(items[0], deadline=min_cost / 2)
        snapshot = service.snapshot()
        assert snapshot.counters["expired"] == 1
        assert snapshot.counters["submitted"] == 0
        assert snapshot.queue_depth == 0

    def test_deadline_expiring_in_queue_drops_request(
        self, engine, truth, items, min_cost
    ):
        # Admissible at submit, but the budget runs out while queued: the
        # future fails with DeadlineExpired instead of wasting a slot.
        service = service_for(engine, truth, batch_size=4)
        doomed = service.submit(items[0], deadline=min_cost + 0.02)
        alive = service.submit(items[1])
        time.sleep(0.15)
        with service:
            assert alive.result(timeout=10).item_id == items[1].item_id
            with pytest.raises(DeadlineExpired, match="expired after"):
                doomed.result(timeout=10)
        snapshot = service.snapshot()
        assert snapshot.counters["expired"] == 1
        assert snapshot.counters["completed"] == 1

    def test_unconstrained_requests_never_expire(self, items):
        queue = RequestQueue(min_cost=1.0)
        request = request_for(items[0])  # no deadline
        queue.put(request)
        batch, expired, _ = queue.pop_batch(4, 0.0)
        assert batch == [request] and expired == []


class TestLifecycle:
    def test_drain_resolves_everything(self, engine, truth, items):
        service = service_for(engine, truth, batch_size=4, max_wait=5.0)
        futures = service.submit_many(items[:10])
        service.start()
        assert service.drain(timeout=10)
        # drain flushed the underfull tail immediately (no 5 s wait) and
        # left nothing pending
        assert all(f.done() for f in futures)
        assert service.queue.depth == 0
        with pytest.raises(ServiceStopped):
            service.submit(items[0])
        service.shutdown()

    def test_shutdown_fails_undispatched_requests(self, engine, truth, items):
        service = service_for(engine, truth)
        futures = service.submit_many(items[:5])
        service.shutdown()  # never started: nothing was dispatched
        for future in futures:
            assert future.done()
            with pytest.raises(ServiceStopped):
                future.result()
        snapshot = service.snapshot()
        assert snapshot.counters["cancelled"] == 5
        assert snapshot.queue_depth == 0

    def test_cancelled_future_settles_and_its_batch_finishes(
        self, engine, truth, items, tmp_path
    ):
        tracer = TraceBuffer(16)
        service = service_for(
            engine, truth, batch_size=8, tracer=tracer, journal=str(tmp_path)
        )
        futures = [service.submit(item) for item in items[:4]]
        assert futures[1].cancel()
        service.start()
        assert service.drain(timeout=3)
        assert service._pending == 0
        assert futures[1].cancelled()
        assert [f.result().item_id for f in futures[2:]] == [
            item.item_id for item in items[2:4]
        ]
        assert service.snapshot().counters["cancelled"] == 1
        assert service.journal.stats().pending == 0
        assert sorted(t["status"] for t in tracer.tail()) == [
            "cancelled", "completed", "completed", "completed",
        ]
        service.shutdown()

    def test_context_manager_drains_on_exit(self, engine, truth, items):
        with service_for(engine, truth, batch_size=4) as service:
            futures = service.submit_many(items[:6])
        assert all(f.done() for f in futures)
        assert service.snapshot().counters["completed"] == 6

    def test_start_after_shutdown_refused(self, engine, truth):
        service = service_for(engine, truth)
        service.shutdown()
        with pytest.raises(ServiceStopped):
            service.start()

    def test_worker_failure_propagates_to_futures(self, engine, truth, items):
        service = service_for(engine, truth, batch_size=4, max_wait=5.0)
        boom = RuntimeError("backend exploded")

        def failing(batch, spec):
            raise boom

        service._label_batch = failing
        futures = service.submit_many(items[:4])
        with service:
            for future in futures:
                with pytest.raises(RuntimeError, match="backend exploded"):
                    future.result(timeout=10)
        assert service.snapshot().counters["failed"] == 4


class TestTelemetry:
    def test_snapshot_numbers_are_consistent(self, engine, truth, items):
        service = service_for(engine, truth, batch_size=4, max_wait=0.01)
        with service:
            futures = service.submit_many(items[:12])
            [f.result(timeout=10) for f in futures]
        snapshot = service.snapshot()
        assert snapshot.counters["submitted"] == 12
        assert snapshot.counters["completed"] == 12
        assert snapshot.batches == sum(snapshot.flushes.values())
        assert snapshot.batched_items == 12
        assert snapshot.throughput > 0
        assert snapshot.elapsed > 0
        wait = snapshot.queue_wait
        assert wait.count == 12
        assert 0 <= wait.p50 <= wait.p95 <= wait.p99 <= wait.max
        service_time = snapshot.service_time
        assert service_time.count == 12
        assert service_time.p99 > 0
        assert "items/sec" in snapshot.format()

    def test_worker_threads_appear_in_dispatch_counters(self, engine, truth, items):
        # With a thread-dispatched engine the per-worker counters name the
        # service's worker threads and account for every dispatched item.
        service = service_for(engine, truth, batch_size=4, max_wait=0.01)
        with service:
            [f.result(timeout=10) for f in service.submit_many(items[:12])]
        snapshot = service.snapshot()
        assert snapshot.workers
        assert all(w.startswith("labeling-worker") for w in snapshot.workers)
        assert sum(snapshot.workers.values()) == 12
        assert "workers" in snapshot.format()

    def test_extra_workers_merge_into_snapshot(self):
        telemetry = ServiceTelemetry()
        telemetry.observe_dispatch("pid1", 3)
        snapshot = telemetry.snapshot(extra_workers={"pid1": 2, "pid2": 5})
        assert snapshot.workers == {"pid1": 5, "pid2": 5}

    def test_histogram_reservoir_bounds_memory(self):
        histogram = MetricsRegistry().histogram("h", capacity=100).labels()
        for i in range(10_000):
            histogram.observe(i / 10_000)
        count, _, quantiles = histogram.summary()
        assert count == 10_000
        assert len(histogram._samples) == 100
        # reservoir percentiles track the uniform population
        assert 0.3 < quantiles[0.5] < 0.7
        assert quantiles[0.99] > 0.8

    def test_empty_stats(self):
        stats = ServiceTelemetry().snapshot().queue_wait
        assert stats.count == 0
        assert stats.mean == stats.p99 == stats.max == 0.0
        assert stats.format() == "no samples"


def recording_service(engine, truth, **kwargs):
    """A service whose every engine dispatch is logged as (item_ids, spec)."""
    service = service_for(engine, truth, **kwargs)
    dispatched = []
    inner = service._label_batch
    service._label_batch = lambda batch, spec: (
        dispatched.append(([i.item_id for i in batch], spec)),
        inner(batch, spec),
    )[1]
    return service, dispatched


class TestMixedRegimes:
    """One service hosting several specs dispatches only homogeneous batches."""

    def test_mixed_traffic_yields_only_homogeneous_batches(
        self, engine, truth, items
    ):
        specs = [
            LabelingSpec(),
            LabelingSpec(deadline=0.35),
            LabelingSpec(deadline=0.5, memory_budget=8000.0),
        ]
        service, dispatched = recording_service(
            engine, truth, batch_size=4, max_wait=0.005, spec=None
        )
        by_item = {}
        with service:
            futures = []
            for i, item in enumerate(items):
                spec = specs[i % len(specs)]
                by_item[item.item_id] = spec
                futures.append(service.submit(item, spec))
            results = [f.result(timeout=10) for f in futures]
        assert len(results) == len(items)
        assert service.snapshot().counters["failed"] == 0
        # every dispatched batch holds exactly one batch_key, and the spec
        # handed to the engine is that key's spec
        assert dispatched
        for item_ids, spec in dispatched:
            keys = {by_item[i].batch_key for i in item_ids}
            assert keys == {spec.batch_key}
        # all three regimes actually flowed through the service
        seen = {spec.regime for _, spec in dispatched}
        assert seen == {"qgreedy", "deadline", "deadline_memory"}

    def test_per_regime_telemetry_counters(self, engine, truth, items):
        service = service_for(
            engine, truth, batch_size=4, max_wait=0.005, spec=None
        )
        with service:
            futures = [
                service.submit(item, LabelingSpec(deadline=0.35))
                for item in items[:6]
            ] + [service.submit(item) for item in items[6:12]]
            [f.result(timeout=10) for f in futures]
        regimes = service.snapshot().regimes
        assert regimes["deadline"] == 6
        assert regimes["qgreedy"] == 6
        assert "regimes" in service.snapshot().format()

    def test_pre_start_mixed_queue_splits_deterministically(
        self, engine, truth, items
    ):
        # 4 unconstrained + 4 deadline requests queued before start(), with
        # a huge batch_size: the first pop takes all of one key and, since
        # other-key traffic was waiting when its timer expired, flushes as
        # regime_split; the second pop gets the rest.
        service, dispatched = recording_service(
            engine, truth, batch_size=64, max_wait=0.05, workers=1, spec=None
        )
        futures = []
        for i, item in enumerate(items[:8]):
            spec = LabelingSpec(deadline=0.35) if i % 2 else LabelingSpec()
            futures.append(service.submit(item, spec))
        with service:
            [f.result(timeout=10) for f in futures]
        assert [len(ids) for ids, _ in dispatched] == [4, 4]
        assert service.snapshot().flushes["regime_split"] >= 1
        # FIFO anchor: the first batch is the first-submitted key's
        assert dispatched[0][1].regime == "qgreedy"
        assert dispatched[1][1].regime == "deadline"

    def test_results_match_direct_engine_dispatch_per_spec(
        self, engine, truth, items
    ):
        # mixed-regime serving adds grouping, not semantics: every future
        # resolves to the trace a direct engine call under its spec yields
        specs = [LabelingSpec(), LabelingSpec(deadline=0.35)]
        pairs = [(item, specs[i % 2]) for i, item in enumerate(items)]
        service = service_for(
            engine, truth, batch_size=8, max_wait=0.005, spec=None
        )
        with service:
            futures = [(item, spec, service.submit(item, spec)) for item, spec in pairs]
            served = [(item, spec, f.result(timeout=10)) for item, spec, f in futures]
        for spec in specs:
            group = [(item, got) for item, s, got in served if s is spec]
            direct = engine.label_batch([item for item, _ in group], spec, truth=truth)
            for (_, got), ref in zip(group, direct):
                assert got.item_id == ref.item_id
                assert got.trace.executions == ref.trace.executions

    def test_spec_plus_priority_kwarg_rejected(self, engine, truth, items):
        service = service_for(engine, truth)
        # priorities live on the spec, constraints in its constructor
        with pytest.raises(TypeError, match="priority"):
            service.submit(items[0], LabelingSpec(priority=1), priority=2)
        with pytest.raises(TypeError, match="deadline"):
            LabelingService(
                engine, spec=LabelingSpec(deadline=0.5), deadline=0.5
            )


class TestBulkAdmission:
    def test_submit_many_counts_one_bulk_event(self, engine, truth, items):
        service = service_for(engine, truth, batch_size=4, max_wait=0.01)
        with service:
            futures = service.submit_many(items[:10])
            [f.result(timeout=10) for f in futures]
        counters = service.snapshot().counters
        assert counters["submitted"] == 10
        assert counters["submitted_many"] == 1
        assert counters["completed"] == 10

    def test_submit_many_with_spec(self, engine, truth, items):
        service = service_for(
            engine, truth, batch_size=4, max_wait=0.01, spec=None
        )
        with service:
            futures = service.submit_many(
                items[:6], LabelingSpec(deadline=0.35, priority=1)
            )
            results = [f.result(timeout=10) for f in futures]
        assert [r.item_id for r in results] == [i.item_id for i in items[:6]]
        assert service.snapshot().regimes == {"deadline": 6}

    def test_submit_many_expired_items_fail_their_futures(
        self, engine, truth, items, min_cost
    ):
        # bulk admission never raises mid-stream: the impossible-deadline
        # items get DeadlineExpired on their futures, the rest complete
        service = service_for(engine, truth, batch_size=4, max_wait=0.01)
        with service:
            futures = service.submit_many(items[:4], deadline=min_cost / 2)
            good = service.submit_many(items[4:8])
            for future in futures:
                with pytest.raises(DeadlineExpired):
                    future.result(timeout=10)
            [f.result(timeout=10) for f in good]
        counters = service.snapshot().counters
        assert counters["expired"] == 4
        assert counters["submitted"] == 4
        assert counters["submitted_many"] == 2
        assert counters["completed"] == 4

    def test_submit_many_reject_overflow_fails_futures(
        self, engine, truth, items
    ):
        service = service_for(
            engine, truth, batch_size=2, max_depth=2, overflow="reject"
        )
        futures = service.submit_many(items[:5])
        for future in futures[2:]:
            with pytest.raises(QueueFull):
                future.result(timeout=10)
        counters = service.snapshot().counters
        assert counters["rejected"] == 3
        assert counters["submitted"] == 2
        with service:
            pass
        assert service.snapshot().counters["completed"] == 2

    def test_put_many_overflow_wakes_running_consumer(self, items):
        # Regression: bulk admission beyond max_depth under block overflow
        # must wake the (idle) consumer for the requests it already pushed
        # before blocking for space — not deadlock on the shared condition.
        queue = RequestQueue(max_depth=2, overflow="block")
        popped = []

        def consumer():
            while True:
                batch, _, reason = queue.pop_batch(2, 0.005)
                if reason is None:
                    return
                popped.extend(batch)

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        time.sleep(0.05)  # park the consumer in the empty-heap wait
        outcome = queue.put_many(
            [request_for(item) for item in items[:6]], timeout=5.0
        )
        assert len(outcome.admitted) == 6
        assert not outcome.rejected and not outcome.stopped
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_submit_many_empty_input(self, engine, truth):
        service = service_for(engine, truth)
        assert service.submit_many([]) == []
        assert service.snapshot().counters["submitted_many"] == 0
        service.shutdown()

    def test_submit_many_refused_after_drain(self, engine, truth, items):
        service = service_for(engine, truth)
        service.start()
        service.drain(timeout=10)
        with pytest.raises(ServiceStopped):
            service.submit_many(items[:3])
        service.shutdown()


class TestQueueValidation:
    def test_constructor_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="max_depth"):
            RequestQueue(max_depth=0)
        with pytest.raises(ValueError, match="overflow"):
            RequestQueue(overflow="drop-newest")
        with pytest.raises(ValueError, match="min_cost"):
            RequestQueue(min_cost=-1.0)

    def test_pop_batch_rejects_bad_parameters(self):
        queue = RequestQueue()
        with pytest.raises(ValueError, match="max_items"):
            queue.pop_batch(0, 0.1)
        with pytest.raises(ValueError, match="max_wait"):
            queue.pop_batch(1, -0.1)

    def test_closed_queue_refuses_put_and_signals_pop(self, items):
        queue = RequestQueue()
        queue.put(request_for(items[0]))
        leftovers = queue.close()
        assert [r.item.item_id for r in leftovers] == [items[0].item_id]
        with pytest.raises(ServiceStopped):
            queue.put(request_for(items[1]))
        assert queue.pop_batch(4, 0.0) == ([], [], None)
