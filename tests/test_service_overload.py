"""Under overload the service's own queue stays in charge.

The dispatcher hands a formed batch only to a free worker thread, so
while every worker is busy at most one batch waits outside the queue and
the rest of the backlog stays where the depth bound, admission deadlines,
stride priority and tenant weights apply.  Each scenario slows the batch
path to a fixed service time and overloads ``workers`` by an order of
magnitude; with an unbounded hand-off every admitted request would drain
into the worker pool's private FIFO instead.
"""

import time

import pytest

from repro.engine import LabelingEngine
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import (
    DeadlineExpired,
    LabelingService,
    LabelingSpec,
    QueueFull,
)


@pytest.fixture(scope="module")
def engine(zoo, space, world_config):
    agent = make_agent(
        "dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1, hidden_size=16
    )
    return LabelingEngine(zoo, AgentPredictor(agent, len(zoo)), world_config)


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:101]


def slow_service(engine, service_s: float, **kwargs):
    """A service whose every batch takes ``service_s`` seconds.

    Returns the service and its batch log: one ``(spec, in_flight)`` per
    batch, in the order workers started them.
    """
    service = LabelingService(engine, max_wait=0.0, **kwargs)
    log = []

    def label_batch(batch, spec):
        log.append((spec, service.in_flight))
        time.sleep(service_s)
        return [item.item_id for item in batch]

    service._label_batch = label_batch
    return service, log


def assert_only_workers_hold_batches(service, log):
    # in_flight counts requests handed to workers; the dispatcher's one
    # held batch is the only other place a popped request can be.
    peak = max(in_flight for _, in_flight in log)
    assert peak <= service.workers * service.batch_size


def outcomes(futures):
    done, expired = 0, 0
    for future in futures:
        try:
            future.result(timeout=10)
            done += 1
        except DeadlineExpired:
            expired += 1
    return done, expired


def test_depth_bound_rejects_under_overload(engine, items):
    service, log = slow_service(
        engine, 0.05, workers=1, batch_size=4, max_depth=8, overflow="reject"
    )
    accepted, rejected = [], 0
    with service:
        for item in items[:40]:
            try:
                accepted.append(service.submit(item))
            except QueueFull:
                rejected += 1
            time.sleep(0.001)
        for future in accepted:
            future.result(timeout=10)
    # Ten fit (one running, one held, eight queued) before the first
    # batch finishes; the rest of a ~45 ms burst meets a full queue.
    assert rejected >= 20
    assert len(accepted) + rejected == 40
    assert service.snapshot().counters["rejected"] == rejected
    assert_only_workers_hold_batches(service, log)


def test_admission_deadlines_expire_in_the_queue(engine, items):
    service, log = slow_service(engine, 0.05, workers=1, batch_size=1)
    with service:
        futures = service.submit_many(items[:20], deadline=0.2)
        done, expired = outcomes(futures)
    # About four 50 ms batches fit a 0.2 s budget (plus the held one).
    assert done + expired == 20
    assert 1 <= done <= 8
    assert expired >= 12
    assert_only_workers_hold_batches(service, log)


def test_priority_batch_overtakes_a_queued_backlog(engine, items):
    service, log = slow_service(engine, 0.05, workers=1, batch_size=4)
    with service:
        backlog = service.submit_many(items[:40], LabelingSpec(deadline=0.35))
        time.sleep(0.02)  # the dispatcher reaches its overloaded steady state
        urgent =service.submit_many(items[40:44], LabelingSpec(priority=5))
        for future in backlog + urgent:
            future.result(timeout=10)
    order = [spec.priority for spec, _ in log]
    assert len(order) == 11
    # Behind at most the running batch and the one the dispatcher holds.
    assert order.index(5) <= 2
    assert_only_workers_hold_batches(service, log)


def test_cold_tenant_overtakes_a_hot_backlog(engine, items):
    # The default queue is tenant-fair: no queue_factory needed.
    service, log = slow_service(engine, 0.02, workers=2, batch_size=4)
    with service:
        hot = service.submit_many(items[:100], LabelingSpec(tenant="hot"))
        time.sleep(0.01)  # the dispatcher reaches its overloaded steady state
        cold = service.submit(items[100], LabelingSpec(tenant="cold"))
        for future in hot + [cold]:
            future.result(timeout=10)
    tenants = [spec.tenant for spec, _ in log]
    assert len(tenants) == 26
    # Two running, one held, then the tenant-fair pick.
    assert tenants.index("cold") <= 4
    assert_only_workers_hold_batches(service, log)
