"""The unified submit family: submit()/submit_many() and their wait= modes."""

from concurrent.futures import Future

import pytest

from repro.engine import LabelingEngine
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import LabelingService, QueueFull


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


class TestWaitModes:
    def test_invalid_wait_mode(self, engine, truth, items):
        service = LabelingService(engine, truth=truth)
        for wait in ("eventually", "async"):
            with pytest.raises(ValueError, match="wait must be"):
                service.submit(items[0], wait=wait)
            with pytest.raises(ValueError, match="wait must be"):
                service.submit_many(items[:2], wait=wait)

    def test_block_returns_concurrent_future(self, engine, truth, items):
        service = LabelingService(engine, batch_size=4, truth=truth)
        with service:
            future = service.submit(items[0])
            assert isinstance(future, Future)
            result = future.result(timeout=30)
            service.drain()
        assert result.item_id == items[0].item_id

    def test_nowait_rejects_immediately_despite_block_policy(
        self, engine, truth, items
    ):
        # overflow="block" would park the caller; wait="nowait" must not.
        service = LabelingService(
            engine, truth=truth, max_depth=2, overflow="block"
        )
        service.submit(items[0], wait="nowait")
        service.submit(items[1], wait="nowait")
        with pytest.raises(QueueFull):
            service.submit(items[2], wait="nowait")
        with service:
            pass  # drain the two admitted requests
        assert service.snapshot().counters["rejected"] == 1

    def test_submit_many_modes_return_input_ordered_lists(
        self, engine, truth, items
    ):
        service = LabelingService(engine, batch_size=4, truth=truth)
        with service:
            futures = service.submit_many(items[:8], wait="nowait")
            results = [f.result(timeout=30) for f in futures]
            service.drain()
        assert [r.item_id for r in results] == [i.item_id for i in items[:8]]
