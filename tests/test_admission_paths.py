"""The admission contract, stated once: every entry point accounts alike.

``submit`` is ``submit_many`` of one.  So N calls of the first and one call
of the second, on fresh services, must leave the same counters, the same
SLO series, the same journal and the same trace spans — whatever fate the
requests meet (admitted, expired at admission, refused by the depth bound,
refused because the service is draining) and whichever of the result
cache, the journal and the tracer are installed.

Requests are admitted into a service that has *not* been started, so the
queue's state (and with it every fate) is a function of the call sequence
alone; the service is then started and drained so the admitted ones
complete.  What this does not cover: dispatcher timing (expiry while
queued, flush reasons) and injected faults (a failing journal, a worker
dying mid-batch).
"""

import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import LabelingEngine
from repro.obs import TraceBuffer
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import (
    DeadlineExpired,
    LabelingService,
    LabelingSpec,
    QueueFull,
    ServiceStopped,
    ServingError,
)

REGIMES = (
    LabelingSpec(),
    LabelingSpec(deadline=0.5),
    LabelingSpec(deadline=0.5, memory_budget=8000.0),
)


@pytest.fixture(scope="module")
def predictor(zoo, space):
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
    return test.items[:16]


@pytest.fixture(scope="module")
def min_cost(engine):
    return float(engine.zoo.times.min())


def one_by_one(service, items, spec, **kwargs):
    """N × ``submit``; returns the refusals it raised."""
    refusals = []
    for item in items:
        try:
            service.submit(item, spec, **kwargs)
        except ServingError as exc:
            refusals.append(type(exc))
    return refusals


def in_bulk(service, items, spec, **kwargs):
    """One ``submit_many(N)``; returns the refusals already on its futures."""
    try:
        futures = service.submit_many(items, spec, **kwargs)
    except ServiceStopped:
        return [ServiceStopped] * len(items)
    return [type(f.exception()) for f in futures if f.done() and f.exception()]


def run(engine, truth, calls, enter, *, drained=False, features=(), **kwargs):
    """Admit ``calls`` through ``enter`` on a fresh service; its footprint.

    ``calls`` is a sequence of ``(items, spec, submit kwargs)``.  The
    footprint is everything the two entry points must agree on.
    """
    with tempfile.TemporaryDirectory() as journal_dir:
        tracer = TraceBuffer(capacity=256) if "tracer" in features else None
        service = LabelingService(
            engine,
            truth=truth,
            batch_size=4,
            cache_size=64 if "cache" in features else None,
            journal=journal_dir if "journal" in features else None,
            tracer=tracer,
            **kwargs,
        )
        if drained == "queue":
            service.queue.start_drain()  # the stop races past the first check
        elif drained:
            service.drain()
        refusals = []
        for items, spec, submit_kwargs in calls:
            refusals += enter(service, items, spec, **submit_kwargs)
        service.start()
        assert service.drain(timeout=30)
        snapshot = service.snapshot()
        journal = None
        if service.journal is not None:
            stats = service.journal.stats()
            journal = (stats.admitted, stats.terminals, stats.pending)
        service.shutdown()
    counters = dict(snapshot.counters)
    del counters["submitted_many"]
    spans = None
    if tracer is not None:
        assert tracer.started == tracer.finished
        spans = Counter(trace["status"] for trace in tracer.tail())
    return {
        "refusals": Counter(refusals),
        "counters": counters,
        "slo": {
            name: {
                key: (slo.completed, slo.expired, slo.failed)
                for key, slo in view.items()
            }
            for name, view in [
                ("regime", snapshot.slo),
                ("tenant", snapshot.tenant_slo),
            ]
        },
        "journal": journal,
        "spans": spans,
    }


FEATURES = [(), ("cache",), ("journal",), ("tracer",), ("cache", "journal", "tracer")]


@pytest.mark.parametrize("features", FEATURES, ids=lambda f: "+".join(f) or "bare")
class TestBothEntryPointsAccountAlike:
    def both(self, engine, truth, calls, features, **kwargs):
        single = run(engine, truth, calls, one_by_one, features=features, **kwargs)
        bulk = run(engine, truth, calls, in_bulk, features=features, **kwargs)
        assert single == bulk
        return bulk

    def test_fits(self, engine, truth, items, features):
        # the repeated item coalesces onto its first flight under a cache
        spec = LabelingSpec(deadline=0.5, tenant="t")
        seen = self.both(
            engine, truth, [(items[:5] + items[:1], spec, {})], features
        )
        cached = "cache" in features
        assert seen["counters"]["completed"] == (5 if cached else 6)
        assert seen["counters"]["coalesced"] == (1 if cached else 0)
        assert not seen["refusals"]

    def test_admission_expired(self, engine, truth, items, features, min_cost):
        spec = LabelingSpec(deadline=0.5, tenant="t")
        seen = self.both(
            engine, truth, [(items[:4], spec, {"deadline": min_cost / 2})], features
        )
        assert seen["refusals"] == {DeadlineExpired: 4}
        assert seen["counters"]["expired"] == 4
        assert seen["counters"]["submitted"] == 0
        # drift (a): a deadline miss whichever entry point carried it
        assert seen["slo"]["regime"]["deadline"] == (0, 4, 0)
        assert seen["slo"]["tenant"]["t"] == (0, 4, 0)
        if "journal" in features:
            assert seen["journal"] == (4, {"expired": 4}, 0)
        if "tracer" in features:
            assert seen["spans"] == {"expired": 4}

    def test_depth_refused_under_reject(self, engine, truth, items, features):
        seen = self.both(
            engine,
            truth,
            [(items[:6], None, {})],
            features,
            max_depth=2,
            overflow="reject",
        )
        assert seen["refusals"] == {QueueFull: 4}
        assert seen["counters"]["rejected"] == 4
        assert seen["counters"]["completed"] == 2

    def test_nowait_on_a_full_block_queue(self, engine, truth, items, features):
        seen = self.both(
            engine,
            truth,
            [(items[:6], None, {"wait": "nowait"})],
            features,
            max_depth=2,
            overflow="block",
        )
        assert seen["refusals"] == {QueueFull: 4}
        assert seen["counters"]["rejected"] == 4

    def test_draining(self, engine, truth, items, features):
        # drift (b): refused before any span, cache claim or journal record
        seen = self.both(
            engine, truth, [(items[:3], None, {})], features, drained=True
        )
        assert seen["refusals"] == {ServiceStopped: 3}
        assert not any(seen["counters"].values())
        if "journal" in features:
            assert seen["journal"] == (0, {}, 0)
        if "tracer" in features:
            assert not seen["spans"]

    def test_queue_stops_under_the_call(self, engine, truth, items, features):
        # drift (b), second half: counted pending, so settled as cancelled
        seen = self.both(
            engine, truth, [(items[:3], None, {})], features, drained="queue"
        )
        assert seen["refusals"] == {ServiceStopped: 3}
        assert seen["counters"]["cancelled"] == 3
        if "journal" in features:
            assert seen["journal"] == (3, {"cancelled": 3}, 0)
        if "tracer" in features:
            assert seen["spans"] == {"cancelled": 3}


@st.composite
def call_sequences(draw):
    """Calls over distinct items: ``(item indices, regime, tenant, deadline)``."""
    order = draw(st.permutations(range(16)))
    calls = []
    while order and len(calls) < 5:
        size = draw(st.integers(1, 5))
        calls.append(
            (
                order[:size],
                draw(st.sampled_from(REGIMES)),
                draw(st.sampled_from((None, "a", "b"))),
                draw(st.sampled_from((None, "lapsed", 60.0))),
            )
        )
        order = order[size:]
    return calls


class TestGeneratedSequences:
    @settings(max_examples=20, deadline=None)
    @given(
        sequence=call_sequences(),
        max_depth=st.integers(1, 12),
        nowait=st.booleans(),
        cache=st.booleans(),
    )
    def test_entry_points_leave_the_same_footprint(
        self, engine, truth, items, min_cost, sequence, max_depth, nowait, cache
    ):
        # Distinct items, so under a cache both paths claim the same keys:
        # a duplicate of a *refused* key retries one by one but coalesces
        # within one bulk call, which is batching, not drift.  A full queue
        # refuses either way: by policy, or by wait="nowait" on a block queue.
        lapsed = min_cost / 2
        calls = [
            (
                [items[i] for i in indices],
                regime.with_(tenant=tenant),
                {
                    "deadline": lapsed if deadline == "lapsed" else deadline,
                    "wait": "nowait" if nowait else "block",
                },
            )
            for indices, regime, tenant, deadline in sequence
        ]
        features = ("journal", "tracer") + (("cache",) if cache else ())
        kwargs = {"max_depth": max_depth, "overflow": "block" if nowait else "reject"}
        single = run(engine, truth, calls, one_by_one, features=features, **kwargs)
        bulk = run(engine, truth, calls, in_bulk, features=features, **kwargs)
        assert single == bulk
        affordable = sum(
            len(batch) for batch, _, sent in calls if sent["deadline"] != lapsed
        )
        assert bulk["counters"]["submitted"] == min(max_depth, affordable)
        assert bulk["journal"][2] == 0  # nothing acknowledged is left owing
