"""The result cache: LRU bounds, single-flight coalescing, and its
interaction with service admission and the shared-truth lifecycle."""

import threading
from concurrent.futures import Future

import pytest

from repro.engine import LabelingEngine
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import (
    DeadlineExpired,
    LabelingService,
    LabelingSpec,
    ResultCache,
    ServiceStopped,
)
from repro.zoo.oracle import GroundTruth


@pytest.fixture(scope="module")
def engine(zoo, space, world_config):
    agent = make_agent(
        "dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1, hidden_size=32
    )
    return LabelingEngine(zoo, AgentPredictor(agent, len(zoo)), world_config)


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:24]


def cached_service(engine, truth, **kwargs):
    kwargs.setdefault("cache_size", 64)
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("max_wait", 0.005)
    return LabelingService(engine, truth=truth, **kwargs)


class TestResultCacheUnit:
    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(0)

    def test_claim_join_hit_transitions(self):
        cache = ResultCache(4)
        leader = Future()
        outcome, payload = cache.begin(("x", None), leader)
        assert outcome == "claim" and payload is leader
        follower = Future()
        outcome, payload = cache.begin(("x", None), follower)
        assert outcome == "join" and payload is leader
        cache.settle(("x", None), result="labeled-x")
        outcome, payload = cache.begin(("x", None), Future())
        assert outcome == "hit" and payload == "labeled-x"
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.coalesced) == (1, 1, 1)
        assert stats.inflight == 0 and stats.size == 1
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert "hit rate" in stats.format()

    def test_error_settle_releases_claim_without_caching(self):
        cache = ResultCache(4)
        cache.begin(("x", None), Future())
        cache.settle(("x", None), error=RuntimeError("boom"))
        assert ("x", None) not in cache
        outcome, _ = cache.begin(("x", None), Future())
        assert outcome == "claim"  # a later submission retries

    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(2)
        for key, value in (("a", 1), ("b", 2)):
            cache.begin((key, None), Future())
            cache.settle((key, None), result=value)
        assert cache.begin(("a", None), Future())[0] == "hit"  # refresh a
        cache.begin(("c", None), Future())
        cache.settle(("c", None), result=3)  # evicts b, not a
        assert ("a", None) in cache and ("c", None) in cache
        assert ("b", None) not in cache
        assert cache.stats().evictions == 1
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    def test_eviction_leaves_inflight_claim_alone(self):
        # The satellite interaction: a key can be evicted from the LRU
        # while its *re-flight* is claimed; the claim must survive and
        # later settle normally.
        cache = ResultCache(1)
        cache.begin(("a", None), Future())
        cache.settle(("a", None), result=1)
        leader = Future()
        assert cache.begin(("a", None), leader)[0] == "hit"
        # a is cached AND being recomputed (e.g. hit raced with eviction)
        refetch = Future()
        cache.begin(("b", None), Future())
        cache.settle(("b", None), result=2)  # evicts a
        assert ("a", None) not in cache
        outcome, payload = cache.begin(("a", None), refetch)
        assert outcome == "claim"
        assert cache.begin(("a", None), Future()) == ("join", refetch)
        cache.settle(("a", None), result=10)
        assert cache.begin(("a", None), Future()) == ("hit", 10)

    def test_exactly_one_claim_under_concurrent_begin(self):
        cache = ResultCache(8)
        outcomes = []
        barrier = threading.Barrier(8)

        def contender():
            future = Future()
            barrier.wait()
            outcomes.append(cache.begin(("hot", None), future))

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        claims = [p for o, p in outcomes if o == "claim"]
        joins = [p for o, p in outcomes if o == "join"]
        assert len(claims) == 1 and len(joins) == 7
        assert all(p is claims[0] for p in joins)  # one shared future
        assert cache.stats().coalesced == 7


class TestServiceCacheIntegration:
    def test_repeat_submission_skips_scheduling(self, engine, truth, items):
        service = cached_service(engine, truth)
        with service:
            first = service.submit(items[0], LabelingSpec(deadline=0.35))
            result = first.result(timeout=10)
            again = service.submit(items[0], LabelingSpec(deadline=0.35))
            assert again.done()  # answered inline, never queued
            assert again.result() is result
        counters = service.snapshot().counters
        assert counters["cache_miss"] == 1
        assert counters["cache_hit"] == 1
        assert counters["submitted"] == 1  # the hit never hit the queue
        assert counters["completed"] == 1

    def test_concurrent_duplicates_coalesce_to_one_flight(
        self, engine, truth, items
    ):
        # Five submissions of one item queued before start(): one claim,
        # four joins, a single engine dispatch for all five futures.
        service = cached_service(engine, truth, batch_size=8, max_wait=0.005)
        dispatched = []
        inner = service._label_batch
        service._label_batch = lambda batch, spec: (
            dispatched.append([i.item_id for i in batch]),
            inner(batch, spec),
        )[1]
        futures = [service.submit(items[0]) for _ in range(5)]
        with service:
            results = [f.result(timeout=10) for f in futures]
        assert len({id(r) for r in results}) == 1  # the shared result
        assert sum(ids.count(items[0].item_id) for ids in dispatched) == 1
        counters = service.snapshot().counters
        assert counters["cache_miss"] == 1
        assert counters["coalesced"] == 4
        assert counters["submitted"] == 1

    def test_distinct_batch_keys_do_not_share_results(
        self, engine, truth, items
    ):
        service = cached_service(engine, truth)
        with service:
            greedy = service.submit(items[0], LabelingSpec()).result(timeout=10)
            bounded = service.submit(
                items[0], LabelingSpec(deadline=0.35)
            ).result(timeout=10)
        assert greedy is not bounded  # one item, two regimes, two flights
        counters = service.snapshot().counters
        assert counters["cache_miss"] == 2
        assert counters["cache_hit"] == 0

    def test_submit_many_routes_duplicates_through_cache(
        self, engine, truth, items
    ):
        service = cached_service(engine, truth)
        batch = [items[0], items[0], items[1]]
        with service:
            futures = service.submit_many(batch)
            results = [f.result(timeout=10) for f in futures]
        assert [r.item_id for r in results] == [i.item_id for i in batch]
        assert results[0] is results[1]
        counters = service.snapshot().counters
        assert counters["cache_miss"] == 2
        assert counters["coalesced"] == 1
        assert counters["submitted"] == 2
        assert counters["submitted_many"] == 1

    def test_cache_is_partitioned_by_tenant(self, engine, truth, items):
        # Cross-tenant isolation regression: a tenant-qualified spec has a
        # tenant-qualified cache key, so tenant b's first submission of an
        # item tenant a already labeled is a miss (fresh flight), while a
        # repeat from tenant a is a hit on a's own entry.
        service = cached_service(engine, truth)
        with service:
            spec_a = LabelingSpec(deadline=0.35, tenant="a")
            spec_b = LabelingSpec(deadline=0.35, tenant="b")
            first = service.submit(items[0], spec_a).result(timeout=10)
            repeat = service.submit(items[0], spec_a)
            assert repeat.done() and repeat.result() is first
            other = service.submit(items[0], spec_b).result(timeout=10)
            assert other is not first
        counters = service.snapshot().counters
        assert counters["cache_miss"] == 2  # one flight per tenant
        assert counters["cache_hit"] == 1

    def test_eviction_and_reflight_keep_shared_truth_clean(
        self, engine, zoo, world_config, items
    ):
        # The satellite regression: evict a hot item's cached result while
        # traffic for it is still arriving, re-flight it, coalesce a
        # duplicate onto the re-flight — the refcounted record/release
        # lifecycle must end with the shared truth empty (no leaked or
        # double-released records) and every future correct.
        shared = GroundTruth(zoo, [], world_config)
        service = LabelingService(
            engine,
            truth=shared,
            cache_size=1,
            batch_size=4,
            max_wait=0.005,
            spec=LabelingSpec(deadline=0.35),
            workers=2,
        )
        with service:
            hot = service.submit(items[0]).result(timeout=10)
            assert service.submit(items[0]).result(timeout=10) is hot
            service.submit(items[1]).result(timeout=10)  # evicts items[0]
            assert service.cache.stats().evictions == 1
            # re-flight the evicted key with a coalescing duplicate
            futures = service.submit_many([items[0], items[0]])
            results = [f.result(timeout=10) for f in futures]
        assert results[0] is results[1]
        assert results[0] is not hot  # recomputed after eviction
        assert results[0].trace.executions == hot.trace.executions
        assert len(shared) == 0  # every service-recorded item was released
        counters = service.snapshot().counters
        assert counters["failed"] == 0
        assert counters["cache_hit"] == 1
        assert counters["coalesced"] == 1
        assert counters["cache_miss"] == 3  # items[0], items[1], re-flight

    def test_admission_failure_fails_joined_futures_and_releases_claim(
        self, engine, truth, items, zoo
    ):
        # Bulk-submit the same item twice with an impossible admission
        # deadline: the claim expires at admission, the joined duplicate
        # inherits the failure, and the key is immediately claimable again.
        min_cost = float(zoo.times.min())
        service = cached_service(engine, truth)
        with service:
            futures = service.submit_many(
                [items[0], items[0]], deadline=min_cost / 2
            )
            for future in futures:
                with pytest.raises(DeadlineExpired):
                    future.result(timeout=10)
            assert service.cache.stats().inflight == 0
            retry = service.submit(items[0])  # fresh claim, no deadline
            assert retry.result(timeout=10).item_id == items[0].item_id
        counters = service.snapshot().counters
        assert counters["expired"] == 1  # one queue admission, one failure
        assert counters["coalesced"] == 1
        assert counters["completed"] == 1

    def test_shutdown_releases_inflight_claims(self, engine, truth, items):
        service = cached_service(engine, truth)
        future = service.submit(items[0])  # claimed + queued, never started
        service.shutdown()
        with pytest.raises(ServiceStopped):
            future.result(timeout=10)
        assert service.cache.stats().inflight == 0

    def test_cache_disabled_by_default(self, engine, truth, items):
        service = LabelingService(
            engine, truth=truth, spec=LabelingSpec(deadline=0.35)
        )
        assert service.cache is None
        with service:
            service.submit(items[0]).result(timeout=10)
            repeat = service.submit(items[0])
            assert not repeat.done() or repeat.result(timeout=10) is not None
            repeat.result(timeout=10)
        counters = service.snapshot().counters
        assert counters["cache_hit"] == 0 and counters["cache_miss"] == 0
        assert counters["submitted"] == 2  # both went through the queue

    def test_cache_and_cache_size_both_rejected(self, engine):
        with pytest.raises(ValueError, match="not both"):
            LabelingService(engine, cache=ResultCache(4), cache_size=4)

    def test_cache_line_in_telemetry_report(self, engine, truth, items):
        service = cached_service(engine, truth)
        with service:
            service.submit(items[0]).result(timeout=10)
            service.submit(items[0]).result(timeout=10)
        assert "cache" in service.snapshot().format()
