"""Per-key dispatch buckets: fairness, single-regime FIFO dispatch order,
timer-tick expiry, and lifecycle across buckets."""

import pytest

from repro.engine import LabelingEngine
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import (
    DeadlineExpired,
    LabelingRequest,
    LabelingService,
    LabelingSpec,
    RequestQueue,
    ServiceStopped,
)
from repro.serving.queue import priority_weight


class FakeClock:
    """Deterministic injectable time source."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:24]


@pytest.fixture(scope="module")
def engine(zoo, space, world_config):
    agent = make_agent(
        "dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1, hidden_size=32
    )
    return LabelingEngine(zoo, AgentPredictor(agent, len(zoo)), world_config)


def request_for(item, **kwargs):
    return LabelingRequest(item=item, **kwargs)


def drain_batches(queue, max_items):
    """Pop until empty; returns [(item_ids, reason), ...]."""
    popped = []
    while queue.depth:
        batch, expired, reason = queue.pop_batch(max_items, 0.0)
        assert expired == []
        popped.append(([r.item.item_id for r in batch], reason))
    return popped


class TestLegacyParity:
    """Single-regime dispatch is plain FIFO — the trace the PR-3 heap
    grouper produced, pinned as absolute expectations now that the
    grouper itself is gone."""

    @pytest.mark.parametrize("batch_size", [1, 4, 7, 64])
    def test_single_regime_traces_identical(self, items, batch_size):
        # With nothing to arbitrate, fairness is free: batches are
        # consecutive FIFO slices, full ones flush on "size" and an
        # underfull tail on "wait".
        spec = LabelingSpec(deadline=0.35)
        queue = RequestQueue(max_depth=64)
        for item in items:
            queue.put(request_for(item, spec=spec, priority=spec.priority))
        ids = [item.item_id for item in items]
        assert drain_batches(queue, batch_size) == [
            (
                ids[start : start + batch_size],
                "size" if start + batch_size <= len(ids) else "wait",
            )
            for start in range(0, len(ids), batch_size)
        ]

    def test_single_bucket_specless_parity(self, items):
        queue = RequestQueue(max_depth=64)
        for item in items[:10]:
            queue.put(request_for(item))
        ids = [item.item_id for item in items[:10]]
        # exact FIFO item order; the underfull tail flushes as "wait"
        assert drain_batches(queue, 4) == [
            (ids[0:4], "size"),
            (ids[4:8], "size"),
            (ids[8:10], "wait"),
        ]

    def test_two_fresh_buckets_anchor_in_arrival_order(self, items):
        # Equal pass values tie-break FIFO by head sequence, and the
        # first flush is regime_split (other-key traffic waited).
        queue = RequestQueue(max_depth=64)
        a, b = LabelingSpec(), LabelingSpec(deadline=0.35)
        for i, item in enumerate(items[:8]):
            queue.put(request_for(item, spec=b if i % 2 else a))
        batch, _, reason = queue.pop_batch(16, 0.0)
        assert [r.batch_key for r in batch] == [a.batch_key] * 4
        assert [r.item.item_id for r in batch] == [
            item.item_id for item in items[0:8:2]
        ]
        assert reason == "regime_split"


class TestWeightedFairness:
    def test_starved_regime_keeps_flowing_under_cross_traffic(self, items):
        # Sustained saturating high-priority traffic of one regime, a
        # trickle of low-priority traffic of another: a strict-priority
        # grouper would never anchor the low bucket until the high
        # traffic stops; the bucket queue serves it within a bounded
        # number of batches.
        service_time = 0.01

        def simulate():
            clock = FakeClock()
            queue = RequestQueue(max_depth=100_000, clock=clock)
            high = LabelingSpec(priority=3)
            low = LabelingSpec(deadline=50.0, priority=0)
            low_waits = []
            in_loop_low_dispatches = 0
            for step in range(200):
                for _ in range(8):
                    queue.put(
                        request_for(
                            items[0], spec=high, priority=3,
                            submitted_at=clock.now,
                        )
                    )
                if step % 4 == 0:
                    queue.put(
                        request_for(
                            items[1], spec=low, submitted_at=clock.now
                        )
                    )
                batch, _, _ = queue.pop_batch(8, 0.0)
                clock.advance(service_time)
                for request in batch:
                    if request.spec is low:
                        low_waits.append(clock.now - request.submitted_at)
                        in_loop_low_dispatches += 1
            while queue.depth:  # cross-traffic over: drain the backlog
                batch, _, _ = queue.pop_batch(8, 0.0)
                clock.advance(service_time)
                for request in batch:
                    if request.spec is low:
                        low_waits.append(clock.now - request.submitted_at)
            return in_loop_low_dispatches, low_waits

        fair_count, fair_waits = simulate()
        assert len(fair_waits) == 50
        # the low bucket is served throughout, with every wait bounded
        # by a few service slots regardless of trace length
        assert fair_count == 50
        assert max(fair_waits) < 10 * service_time

    def test_higher_priority_bucket_served_proportionally_more(self, items):
        # Two continuously refilled buckets, priorities 2 vs 0: stride
        # charges 1/4 as much for the high bucket, so it gets ~4x the
        # batches — but the low bucket is still served regularly (aging).
        clock = FakeClock()
        queue = RequestQueue(max_depth=100_000, clock=clock)
        high = LabelingSpec(priority=2)
        low = LabelingSpec(deadline=50.0, priority=0)
        backlog = {high.batch_key: 0, low.batch_key: 0}
        served = {high.batch_key: 0, low.batch_key: 0}
        gaps_since_low = []
        gap = 0
        for _ in range(100):
            while backlog[high.batch_key] < 8:  # keep both buckets full
                queue.put(request_for(items[0], spec=high, priority=2))
                backlog[high.batch_key] += 1
            while backlog[low.batch_key] < 8:
                queue.put(request_for(items[1], spec=low))
                backlog[low.batch_key] += 1
            batch, _, _ = queue.pop_batch(4, 0.0)
            key = batch[0].batch_key
            served[key] += len(batch)
            backlog[key] -= len(batch)
            if batch[0].spec is low:
                gaps_since_low.append(gap)
                gap = 0
            else:
                gap += 1
        ratio = served[high.batch_key] / served[low.batch_key]
        assert 2.0 < ratio < 8.0  # ~4x, not starvation and not parity
        assert max(gaps_since_low) <= 8  # low is never parked for long

    def test_priority_weight_is_clamped_and_positive(self):
        assert priority_weight(0) == 1.0
        assert priority_weight(2) == 4.0
        assert priority_weight(10**9) == priority_weight(32)
        assert priority_weight(-(10**9)) == priority_weight(-32) > 0.0

    def test_idle_bucket_cannot_bank_credit(self, items):
        # A bucket that sat empty re-enters at the current virtual time:
        # going idle must not let it monopolize the queue afterwards.
        clock = FakeClock()
        queue = RequestQueue(max_depth=1024, clock=clock)
        a, b = LabelingSpec(), LabelingSpec(deadline=50.0)
        for _ in range(4):
            queue.put(request_for(items[0], spec=a))
        for _ in range(6):  # serve A alone for a while: vtime advances
            batch, _, _ = queue.pop_batch(2, 0.0)
            if not queue.depth:
                for _ in range(4):
                    queue.put(request_for(items[0], spec=a))
        # B wakes up; it must not be owed the whole vtime gap at once
        for _ in range(8):
            queue.put(request_for(items[1], spec=b))
        reasons = []
        for _ in range(4):
            batch, _, _ = queue.pop_batch(2, 0.0)
            reasons.append(batch[0].batch_key)
        assert a.batch_key in reasons  # A still gets served alongside B


class TestTimerExpiry:
    def test_expire_overdue_settles_only_overdue_buckets(self, items):
        clock = FakeClock()
        queue = RequestQueue(min_cost=0.1, clock=clock)
        keep = request_for(items[0], spec=LabelingSpec())
        doomed = [
            request_for(item, spec=LabelingSpec(deadline=5.0), deadline=0.3)
            for item in items[1:4]
        ]
        queue.put(keep)
        for request in doomed:
            queue.put(request)
        assert queue.expire_overdue() == []  # nothing overdue yet
        clock.advance(0.25)  # 0.05 budget left < min_cost 0.1
        removed = queue.expire_overdue()
        assert removed == doomed
        assert queue.depth == 1
        batch, expired, _ = queue.pop_batch(4, 0.0)
        assert batch == [keep] and expired == []

    def test_expire_overdue_skips_deadline_free_buckets(self, items):
        # The no-deadline fast path: nothing scanned, nothing removed.
        clock = FakeClock()
        queue = RequestQueue(min_cost=1.0, clock=clock)
        for item in items[:5]:
            queue.put(request_for(item))
        clock.advance(1_000.0)
        assert queue.expire_overdue() == []
        assert queue.depth == 5

    def test_stalled_bucket_settles_on_timer_not_on_dispatch(
        self, engine, truth, items, zoo
    ):
        # Regression for the pop-only expiry: the dispatcher is parked
        # forming a batch for bucket A (huge batch_size, long max_wait),
        # so bucket B is never dispatched — its doomed request must still
        # fail promptly via the reaper's timer tick, long before the 10 s
        # flush timer or drain would reach it.
        min_cost = float(zoo.times.min())
        service = LabelingService(
            engine,
            truth=truth,
            batch_size=64,
            max_wait=10.0,
            workers=1,
            expiry_interval=0.01,
        )
        with service:
            parked = service.submit(items[0], LabelingSpec())
            doomed = service.submit(
                items[1],
                LabelingSpec(deadline=0.35),
                deadline=min_cost + 0.05,
            )
            with pytest.raises(DeadlineExpired, match="expired after"):
                doomed.result(timeout=5)
            assert not parked.done()  # bucket A is still forming its batch
            service.drain(timeout=10)
            assert parked.result(timeout=10).item_id == items[0].item_id
        snapshot = service.snapshot()
        assert snapshot.counters["expired"] == 1
        assert snapshot.counters["completed"] == 1

    def test_expiry_interval_validation(self, engine):
        with pytest.raises(ValueError, match="expiry_interval"):
            LabelingService(engine, expiry_interval=-0.5)


class TestBucketLifecycle:
    def test_depth_counts_all_buckets_and_close_returns_fifo(self, items):
        queue = RequestQueue()
        specs = [LabelingSpec(), LabelingSpec(deadline=1.0),
                 LabelingSpec(deadline=1.0, memory_budget=100.0)]
        for i, item in enumerate(items[:9]):
            queue.put(request_for(item, spec=specs[i % 3]))
        assert queue.depth == 9
        leftovers = queue.close()
        # global submission order, regardless of bucket
        assert [r.item.item_id for r in leftovers] == [
            item.item_id for item in items[:9]
        ]
        assert queue.depth == 0
        with pytest.raises(ServiceStopped):
            queue.put(request_for(items[0]))
        assert queue.pop_batch(4, 0.0) == ([], [], None)

    def test_emptied_buckets_are_pruned(self, items):
        # Every distinct float deadline is its own batch_key; a long-lived
        # queue must not accumulate a bucket per key ever seen.
        queue = RequestQueue()
        for i in range(200):
            spec = LabelingSpec(deadline=1.0 + i * 0.001)
            queue.put(request_for(items[0], spec=spec))
            batch, _, _ = queue.pop_batch(4, 0.0)
            assert len(batch) == 1
        assert queue.depth == 0
        assert len(queue._buckets) == 0  # nothing queued, nothing tracked

    def test_expiry_sweep_prunes_drained_buckets(self, items):
        clock = FakeClock()
        queue = RequestQueue(min_cost=0.1, clock=clock)
        for i in range(20):
            spec = LabelingSpec(deadline=5.0 + i * 0.01)
            queue.put(request_for(items[0], spec=spec, deadline=0.2))
        clock.advance(1.0)
        assert len(queue.expire_overdue()) == 20
        assert len(queue._buckets) == 0

    def test_all_expired_bucket_falls_through_to_live_bucket(self, items):
        # When the fair pick's every request expired while queued, the
        # pop must move on to the next bucket instead of returning empty.
        clock = FakeClock()
        queue = RequestQueue(min_cost=0.1, clock=clock)
        doomed_spec = LabelingSpec(deadline=5.0)
        doomed = [
            request_for(item, spec=doomed_spec, deadline=0.2)
            for item in items[:3]
        ]
        for request in doomed:
            queue.put(request)
        clock.advance(1.0)
        live = request_for(items[3], spec=LabelingSpec(), submitted_at=clock.now)
        queue.put(live)
        batch, expired, reason = queue.pop_batch(4, 0.0)
        assert batch == [live]
        assert expired == doomed
        assert reason in ("wait", "regime_split")
