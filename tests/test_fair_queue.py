"""Per-(tenant, key) dispatch buckets: the dispatch trace against an
independent stride model, fairness between tenants and between keys,
single-regime FIFO dispatch order, timer-tick expiry, and lifecycle."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import LabelingEngine
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import (
    DeadlineExpired,
    LabelingRequest,
    LabelingService,
    LabelingSpec,
    QueueFull,
    RequestQueue,
    ServiceStopped,
)
from repro.serving.queue import priority_weight

from stride_model import StrideModel


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
        assert queue._groups == {}  # nothing queued, nothing tracked

    def test_expiry_sweep_prunes_drained_buckets(self, items):
        clock = FakeClock()
        queue = RequestQueue(min_cost=0.1, clock=clock)
        for i in range(20):
            spec = LabelingSpec(deadline=5.0 + i * 0.01)
            queue.put(request_for(items[0], spec=spec, deadline=0.2))
        clock.advance(1.0)
        assert len(queue.expire_overdue()) == 20
        assert queue._groups == {}

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


def tenant_request(item, tenant=None, **spec_kwargs):
    spec = LabelingSpec(tenant=tenant, **spec_kwargs)
    return LabelingRequest(item=item, spec=spec, priority=spec.priority)


#: Three specs with distinct batch keys; arrivals name one by index.
MODEL_SPECS = (
    LabelingSpec(),
    LabelingSpec(deadline=0.35),
    LabelingSpec(deadline=0.35, memory_budget=8000.0),
)
MODEL_PRIORITIES = (0, 1, 2)


def assert_bounded_waits(events, max_items, weight_of):
    """Stride's starvation bound, checked on a dispatch trace alone.

    While a tenant waits (queued and unserved since it arrived or was last
    served), another tenant ``u`` gets at most ``max_items * w_u / w_t + 1``
    batches per stretch it stays queued; while a key waits, each other key
    of its tenant gets at most ``max_items * 4 + 1`` of that tenant's
    batches (priorities 0..2 put the priority weights within 4x).
    """
    queued, stays = Counter(), Counter()
    tenant_waits, key_waits = {}, {}
    key_bound = math.floor(max_items * 4 + 1e-9) + 1
    for event in events:
        if event[0] == "put":
            _, tenant, key = event
            for name, waits in ((tenant, tenant_waits), ((tenant, key), key_waits)):
                if not queued[name]:
                    stays[name] += 1
                    waits[name] = Counter()
                queued[name] += 1
            continue
        _, tenant, key, n = event
        for waiter, waits in tenant_waits.items():
            if waiter != tenant and queued[waiter]:
                waits[tenant, stays[tenant]] += 1
                share = max_items * weight_of(tenant) / weight_of(waiter)
                assert waits[tenant, stays[tenant]] <= math.floor(share + 1e-9) + 1
        for waiter, waits in key_waits.items():
            if waiter[0] == tenant and waiter != (tenant, key) and queued[waiter]:
                waits[key, stays[tenant, key]] += 1
                assert waits[key, stays[tenant, key]] <= key_bound
        tenant_waits[tenant] = Counter()
        key_waits[tenant, key] = Counter()
        queued[tenant] -= n
        queued[tenant, key] -= n


class TestStrideModel:
    """The queue's dispatch trace equals ``tests/stride_model.py``'s."""

    def test_bound_check_catches_a_starved_tenant(self):
        # t waits while u, queued the whole time, takes three unit batches;
        # equal weights allow u at most max_items + 1 = 2 of them.
        events = [("put", "t", 0)] * 3 + [("put", "u", 0)] * 3
        with pytest.raises(AssertionError):
            assert_bounded_waits(events + [("pop", "u", 0, 1)] * 3, 1, lambda t: 1.0)
        assert_bounded_waits(events + [("pop", "u", 0, 1)] * 2, 1, lambda t: 1.0)

    @pytest.mark.parametrize(
        "tenants", [(None,), (None, "a", "b", "c")], ids=["untagged", "tenants"]
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_dispatch_matches_stride_model(self, items, tenants, data):
        named = [t for t in tenants if t is not None]
        weights = data.draw(
            st.fixed_dictionaries(
                {t: st.sampled_from([0.5, 1.0, 2.0, 3.0]) for t in named}
            )
        )
        default = data.draw(st.sampled_from([1.0, 2.5]))
        max_items = data.draw(st.integers(1, 6))
        put = st.tuples(
            st.just("put"),
            st.sampled_from(tenants),
            st.integers(0, len(MODEL_SPECS) - 1),
            st.sampled_from(MODEL_PRIORITIES),
        )
        # Bursts of arrivals, each followed by a few pops, so buckets of
        # several tenants and keys are queued at once.
        rounds = data.draw(
            st.lists(
                st.tuples(st.lists(put, max_size=12), st.integers(0, 4)),
                max_size=8,
            )
        )
        ops = [op for puts, pops in rounds for op in puts + [("pop",)] * pops]

        queue = RequestQueue(
            max_depth=1024,
            clock=lambda: 0.0,
            tenant_weights=weights,
            default_tenant_weight=default,
        )
        model = StrideModel(weights, default)
        idents: dict[int, int] = {}
        events = []
        for op in ops + [("pop",)] * len(ops):
            if op[0] == "put":
                _, tenant, key, priority = op
                request = LabelingRequest(
                    item=items[len(idents) % len(items)],
                    spec=MODEL_SPECS[key].with_(tenant=tenant),
                    priority=priority,
                )
                idents[id(request)] = len(idents)
                queue.put(request)
                model.put(idents[id(request)], tenant, key, priority)
                events.append(("put", tenant, key))
                continue
            expected = model.pop(max_items)
            if expected is None:
                assert queue.depth == 0
                continue
            tenant, key, members, reason = expected
            batch, expired, got_reason = queue.pop_batch(max_items, 0.0)
            assert expired == []
            assert [idents[id(r)] for r in batch] == members
            assert got_reason == reason
            events.append(("pop", tenant, key, len(members)))
        assert queue.depth == 0 and queue._groups == {}
        assert_bounded_waits(
            events, max_items, lambda t: weights.get(t, default)
        )


class TestTenantFairness:
    def test_cold_tenant_served_within_bounded_batches(self, items):
        # Starvation bound: a hot tenant pre-loads a deep backlog, then a
        # cold tenant's single request arrives.  Equal weights mean the
        # cold tenant must be picked within two batches (the in-progress
        # charge plus one), no matter how deep the hot backlog is.
        queue = RequestQueue(max_depth=256)
        for _ in range(8):
            for item in items[:20]:
                queue.put(tenant_request(item, tenant="hot"))
        queue.put(tenant_request(items[20], tenant="cold"))
        served_at = None
        for index in range(10):
            batch, _, _ = queue.pop_batch(8, 0.0)
            if any(r.tenant == "cold" for r in batch):
                served_at = index
                break
        assert served_at is not None and served_at <= 1

    def test_untagged_backlog_lacks_the_tenant_bound(self, items):
        # Untagged traffic is one tenant, so a late arrival into the one
        # shared FIFO bucket waits behind the entire backlog; tagging the
        # two callers apart serves the late arrival's bucket second.
        def load(queue, tag_tenant):
            for _ in range(8):
                for item in items[:20]:
                    queue.put(
                        tenant_request(item, tenant="hot" if tag_tenant else None)
                    )
            queue.put(
                tenant_request(items[20], tenant="cold" if tag_tenant else None)
            )

        def batches_until(queue, item_id):
            for index in range(100):
                batch, _, _ = queue.pop_batch(8, 0.0)
                if any(r.item.item_id == item_id for r in batch):
                    return index
            return 100

        untagged = RequestQueue(max_depth=256)
        load(untagged, tag_tenant=False)
        tagged = RequestQueue(max_depth=256)
        load(tagged, tag_tenant=True)
        target = items[20].item_id
        assert batches_until(tagged, target) <= 1
        # same spec => same bucket: the backlog is served first
        assert batches_until(untagged, target) == (8 * 20) // 8

    def test_weighted_tenant_gets_proportional_share(self, items):
        # weight 3 vs 1 with both backlogged: of the first 8 batches, the
        # heavy tenant owns ~3/4 (stride guarantees exact proportions
        # over a full cycle, +-1 batch at the boundary).
        queue = RequestQueue(
            max_depth=512, tenant_weights={"paid": 3.0, "free": 1.0}
        )
        for _ in range(10):
            for item in items[:12]:
                queue.put(tenant_request(item, tenant="paid"))
                queue.put(tenant_request(item, tenant="free"))
        served = {"paid": 0, "free": 0}
        for _ in range(8):
            batch, _, _ = queue.pop_batch(6, 0.0)
            served[batch[0].tenant] += 1
        assert served["paid"] == 6
        assert served["free"] == 2

    def test_batches_are_never_cross_tenant(self, items):
        # Same spec, different tenants: every batch stays single-tenant
        # so charges attribute cleanly.
        queue = RequestQueue(max_depth=128)
        for i, item in enumerate(items):
            queue.put(tenant_request(item, tenant=f"t{i % 3}"))
        while queue.depth:
            batch, _, _ = queue.pop_batch(8, 0.0)
            assert len({r.tenant for r in batch}) == 1

    def test_idle_tenant_cannot_bank_credit(self, items):
        # A tenant that goes idle re-enters at the current outer virtual
        # time: its absence must not convert into a burst that starves
        # the tenant that kept the service busy.
        queue = RequestQueue(max_depth=512)
        queue.put(tenant_request(items[0], tenant="idler"))
        batch, _, _ = queue.pop_batch(4, 0.0)
        assert batch[0].tenant == "idler"
        # busy tenant works alone for a long stretch
        for _ in range(10):
            for item in items[:8]:
                queue.put(tenant_request(item, tenant="busy"))
        for _ in range(5):
            queue.pop_batch(8, 0.0)
        # idler returns with a backlog: service must alternate, not
        # hand the idler an uninterrupted catch-up run
        for _ in range(4):
            for item in items[:8]:
                queue.put(tenant_request(item, tenant="idler"))
        first_eight = [queue.pop_batch(8, 0.0)[0][0].tenant for _ in range(8)]
        assert set(first_eight) == {"idler", "busy"}

    @pytest.mark.parametrize("level", ["tenant", "key"])
    def test_trickling_entry_keeps_its_debt(self, items, level):
        # B holds a deep backlog; A adds one request before every pop, so
        # A's backlog drains after each of its batches and A is pruned.
        # A pruned entry's pass must survive it: A re-enters where it
        # left, and B is served once every 8 pops.  Were the debt
        # forgotten, A would re-enter at an unmoved virtual time, win
        # every pick, and B would be served once in 40.
        if level == "tenant":
            spec_a, spec_b = LabelingSpec(tenant="a"), LabelingSpec(tenant="b")
        else:
            spec_a, spec_b = LabelingSpec(), LabelingSpec(deadline=50.0)
        queue = RequestQueue(max_depth=256)
        for item in (items * 3)[:64]:
            queue.put(request_for(item, spec=spec_b))
        served_b = []
        for index in range(40):
            queue.put(request_for(items[0], spec=spec_a))
            batch, _, _ = queue.pop_batch(8, 0.0)
            if batch[0].spec == spec_b:
                served_b.append(index)
        assert served_b == [0, 8, 16, 24, 32]

    @pytest.mark.parametrize("level", ["tenant", "key"])
    def test_weighted_trickler_keeps_its_share(self, items, level):
        # A weighs 0.5 against B's 1, so an A batch of 8 costs as much as
        # two B batches.  A refills 8 requests whenever it drained, so it
        # is pruned after each of its batches and lifts the virtual time
        # past B's pass.  B must still pay from its own pass and be
        # served twice per A batch; charged from that virtual time, B
        # would take over A's debt and the two would alternate.
        if level == "tenant":
            queue = RequestQueue(max_depth=512, tenant_weights={"a": 0.5})
            spec_a, spec_b = LabelingSpec(tenant="a"), LabelingSpec(tenant="b")
            priority_a = 0
        else:
            queue = RequestQueue(max_depth=512)
            spec_a, spec_b = LabelingSpec(), LabelingSpec(deadline=50.0)
            priority_a = -1  # priority_weight(-1) == 0.5
        for item in (items * 11)[:256]:
            queue.put(request_for(item, spec=spec_b))
        order, queued_a = "", 0
        for _ in range(40):
            if not queued_a:
                for item in items[:8]:
                    queue.put(request_for(item, spec=spec_a, priority=priority_a))
                queued_a = 8
            batch, _, _ = queue.pop_batch(8, 0.0)
            if batch[0].spec == spec_a:
                queued_a -= len(batch)
            order += "a" if batch[0].spec == spec_a else "b"
        assert order == "b" + "abb" * 13

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            RequestQueue(tenant_weights={"bad": 0.0})
        with pytest.raises(ValueError):
            RequestQueue(default_tenant_weight=-1.0)

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_non_finite_weight_is_rejected(self, weight):
        # An inf or NaN weight makes every charge 0 or NaN, and the
        # weighted tenant would then win every pick.
        with pytest.raises(ValueError, match="finite"):
            RequestQueue(tenant_weights={"hot": weight})
        with pytest.raises(ValueError, match="finite"):
            RequestQueue(default_tenant_weight=weight)


class TestTenantLifecycle:
    def test_tenant_depths_and_group_pruning(self, items):
        queue = RequestQueue(max_depth=64)
        for item in items[:6]:
            queue.put(tenant_request(item, tenant="a"))
        for item in items[6:10]:
            queue.put(tenant_request(item, tenant="b"))
        assert queue.tenant_depths() == {"a": 6, "b": 4}
        while queue.depth:
            queue.pop_batch(8, 0.0)
        assert queue.tenant_depths() == {}
        assert queue._groups == {}

    def test_close_returns_fifo_and_clears_groups(self, items):
        queue = RequestQueue(max_depth=64)
        for i, item in enumerate(items[:9]):
            queue.put(tenant_request(item, tenant=f"t{i % 3}"))
        leftovers = queue.close()
        assert [r.item.item_id for r in leftovers] == [
            item.item_id for item in items[:9]
        ]
        assert queue._groups == {}

    def test_nowait_put_rejects_full_queue_despite_block_policy(self, items):
        queue = RequestQueue(max_depth=2, overflow="block")
        queue.put(tenant_request(items[0], tenant="a"))
        queue.put(tenant_request(items[1], tenant="a"))
        with pytest.raises(QueueFull, match="nowait"):
            queue.put(tenant_request(items[2], tenant="b"), nowait=True)
        assert queue.depth == 2
        assert queue.tenant_depths() == {"a": 2}
