"""The asyncio front-end: awaitable submissions over the same queue."""

import asyncio

import numpy as np
import pytest

from repro.engine import LabelingEngine
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor, QValuePredictor
from repro.serving import (
    DeadlineExpired,
    LabelingService,
    QueueFull,
    ServiceStopped,
)
from repro.spec import LabelingSpec


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


class FailingPredictor(QValuePredictor):
    def predict(self, state):
        raise RuntimeError("predictor exploded")

    def predict_batch(self, states):
        raise RuntimeError("predictor exploded")


class TestSubmitAsync:
    def test_awaited_result_matches_sync_submission(self, engine, truth, items):
        sync_service = LabelingService(engine, batch_size=4, truth=truth)
        with sync_service:
            expected = [
                f.result(timeout=30)
                for f in sync_service.submit_many(items[:8])
            ]

        async def run():
            service = LabelingService(engine, batch_size=4, truth=truth)
            with service:
                results = [await service.submit(item, wait="async") for item in items[:8]]
                service.drain()
            return results

        got = asyncio.run(run())
        for r, g in zip(expected, got):
            assert g.item_id == r.item_id
            assert g.trace.executions == r.trace.executions

    def test_submit_many_async_gathers_in_input_order(self, engine, truth, items):
        async def run():
            service = LabelingService(engine, batch_size=4, truth=truth)
            with service:
                futures = service.submit_many(
                    items, LabelingSpec(deadline=0.4, priority=1), wait="async"
                )
                results = await asyncio.gather(*futures)
                service.drain()
            return results

        results = asyncio.run(run())
        assert [r.item_id for r in results] == [i.item_id for i in items]

    def test_concurrent_clients_share_one_service(self, engine, truth, items):
        # Two coroutines interleave submissions on one loop; each gets
        # its own input-ordered results back.
        async def client(service, slice_):
            return [await service.submit(item, wait="async") for item in slice_]

        async def run():
            service = LabelingService(engine, batch_size=4, truth=truth)
            with service:
                a, b = await asyncio.gather(
                    client(service, items[:6]), client(service, items[6:12])
                )
                service.drain()
            return a, b

        a, b = asyncio.run(run())
        assert [r.item_id for r in a] == [i.item_id for i in items[:6]]
        assert [r.item_id for r in b] == [i.item_id for i in items[6:12]]

    def test_admission_errors_raise_synchronously(self, engine, truth, items):
        # Admission runs on the calling thread exactly like submit(): an
        # already-expired admission deadline never produces an awaitable.
        async def run():
            service = LabelingService(engine, batch_size=4, truth=truth)
            with service:
                with pytest.raises(DeadlineExpired):
                    service.submit(items[0], deadline=0.0, wait="async")
                service.drain()

        asyncio.run(run())

    def test_stopped_service_rejects_async_submissions(self, engine, truth, items):
        async def run():
            service = LabelingService(engine, batch_size=4, truth=truth)
            with service:
                service.drain()
            with pytest.raises(ServiceStopped):
                service.submit(items[0], wait="async")

        asyncio.run(run())

    def test_serving_failure_surfaces_when_awaited(
        self, zoo, world_config, truth, items
    ):
        # A scheduling-time failure settles the wrapped future with the
        # worker's exception; await re-raises it on the event loop.
        engine = LabelingEngine(
            zoo, FailingPredictor(), world_config, backend="serial"
        )

        async def run():
            service = LabelingService(engine, batch_size=4, truth=truth)
            with service:
                future = service.submit(items[0], wait="async")
                with pytest.raises(RuntimeError, match="predictor exploded"):
                    await future
                service.drain()

        asyncio.run(run())

    def test_nowait_variant_raises_queue_full_without_blocking(
        self, engine, truth, items
    ):
        # The gateway's admission path: against a full queue under the
        # *blocking* overflow policy, blocking admission would park the
        # event loop thread until space appeared; wait="async" must
        # instead raise QueueFull synchronously so callers can answer 429.
        async def run():
            service = LabelingService(
                engine, batch_size=4, truth=truth, max_depth=2, overflow="block"
            )
            # never started: nothing drains, the queue genuinely fills
            service.submit(items[0], wait="async")
            service.submit(items[1], wait="async")
            started = asyncio.get_running_loop().time()
            with pytest.raises(QueueFull, match="nowait"):
                service.submit(items[2], wait="async")
            assert asyncio.get_running_loop().time() - started < 1.0
            # the bulk variant sheds per item: rejections land on the
            # awaitables so accepted siblings still serve
            futures = service.submit_many(items[2:4], wait="async")
            outcome = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(r, QueueFull) for r in outcome)
            service.queue.close()

        asyncio.run(run())

    def test_failures_mix_with_results_under_gather(
        self, zoo, world_config, engine, truth, items
    ):
        # return_exceptions=True gives the complete per-item picture.
        async def run():
            service = LabelingService(engine, batch_size=4, truth=truth)
            with service:
                futures = service.submit_many(items[:4], wait="async")
                outcome = await asyncio.gather(*futures, return_exceptions=True)
                service.drain()
            return outcome

        outcome = asyncio.run(run())
        assert len(outcome) == 4
        assert all(not isinstance(r, Exception) for r in outcome)
        assert [r.item_id for r in outcome] == [i.item_id for i in items[:4]]


class TestOracleBatchConsistency:
    """The vectorized oracle satellite: same numbers, fewer Python loops."""

    def test_predict_matches_marginal_gain(self, truth, items):
        from repro.core.evaluation import marginal_gain
        from repro.core.state import LabelingState
        from repro.scheduling.qgreedy import OraclePredictor

        oracle = OraclePredictor(truth)
        state = LabelingState(truth, items[0].item_id)
        state.execute(0)
        state.execute(3)
        gains = oracle.predict(state)
        expected = np.asarray(
            [
                marginal_gain(truth, items[0].item_id, state.confidences, index)
                for index in range(len(truth.zoo))
            ]
        )
        np.testing.assert_allclose(gains, expected, rtol=0, atol=1e-12)

    def test_predict_batch_matches_per_state_loop(self, truth, items):
        from repro.core.state import LabelingState
        from repro.scheduling.qgreedy import OraclePredictor

        oracle = OraclePredictor(truth)
        states = [LabelingState(truth, item.item_id) for item in items[:5]]
        states[1].execute(2)
        states[4].execute(0)
        stacked = oracle.predict_batch(states)
        assert stacked.shape == (5, len(truth.zoo))
        looped = np.stack([oracle.predict(s) for s in states])
        np.testing.assert_array_equal(stacked, looped)

    def test_gain_matrix_cache_is_bounded(self, truth, items):
        from repro.core.state import LabelingState
        from repro.scheduling.qgreedy import OraclePredictor

        oracle = OraclePredictor(truth)
        oracle.CACHE_ITEMS = 2  # instance attribute shadows the class bound
        for item in items[:4]:
            oracle.predict(LabelingState(truth, item.item_id))
        assert len(oracle._gain_matrices) <= 2
