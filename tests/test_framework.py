"""The paper's Fig. 3 framework end to end: train the value predictor
with :func:`train_agent`, then label through :class:`LabelingEngine`."""

import pytest

from repro.engine import LabelingEngine
from repro.rl.training import train_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.spec import LabelingSpec
from repro.zoo.oracle import GroundTruth


@pytest.fixture(scope="module")
def engine(zoo, world_config, trained):
    return LabelingEngine(zoo, AgentPredictor(trained.agent, len(zoo)), world_config)


@pytest.fixture(scope="module")
def shared_truth(truth):
    return truth


def label(engine, item, spec=None, **kwargs):
    [result] = engine.label_batch([item], spec, **kwargs)
    return result


class TestLabeling:
    def test_unconstrained_label(self, engine, splits, shared_truth):
        _, test = splits
        result = label(engine, test[0], truth=shared_truth)
        assert result.item_id == test[0].item_id
        assert result.recall == pytest.approx(1.0)
        assert len(result.models_executed) == len(engine.zoo)
        # labels sorted by confidence, descending
        confs = [l.confidence for l in result.labels]
        assert confs == sorted(confs, reverse=True)

    def test_max_models_cap(self, engine, splits, shared_truth):
        _, test = splits
        result = label(engine, test[1], LabelingSpec(max_models=4), truth=shared_truth)
        assert len(result.models_executed) == 4

    def test_deadline_uses_algorithm1(self, engine, splits, shared_truth):
        _, test = splits
        result = label(engine, test[2], LabelingSpec(deadline=0.3), truth=shared_truth)
        assert result.time_used <= 0.3 + 1e-9
        assert result.trace.serial_time <= 0.3 + 1e-9

    def test_memory_budget_uses_algorithm2(self, engine, splits, shared_truth, zoo):
        _, test = splits
        result = label(
            engine,
            test[3],
            LabelingSpec(deadline=0.5, memory_budget=8000.0),
            truth=shared_truth,
        )
        # parallel: makespan bounded, memory respected
        for e in result.trace.executions:
            assert zoo[e.model_index].mem <= 8000.0

    def test_memory_without_deadline_rejected(self, engine, splits):
        _, test = splits
        with pytest.raises(ValueError, match="requires a deadline"):
            label(engine, test[0], LabelingSpec(memory_budget=8000.0))

    def test_label_names_match_valuable_outputs(
        self, engine, splits, shared_truth, world_config
    ):
        _, test = splits
        result = label(engine, test[4], truth=shared_truth)
        # every reported label must be a valuable output of an executed model
        valid_names = set()
        for e in result.trace.executions:
            output = shared_truth.output(test[4].item_id, e.model_index)
            valid_names.update(
                l.name for l in output.valuable(world_config.valuable_confidence)
            )
        assert set(result.label_names) <= valid_names

    def test_label_stream(self, engine, splits, shared_truth):
        _, test = splits
        results = list(
            engine.label_stream(
                test[:5], LabelingSpec(deadline=0.4), truth=shared_truth
            )
        )
        assert len(results) == 5
        for item, result in zip(test[:5], results):
            assert result.item_id == item.item_id

    def test_label_without_shared_truth(self, engine, splits):
        """The engine can execute the zoo on-the-fly for new items."""
        _, test = splits
        result = label(engine, test[5], LabelingSpec(max_models=3))
        assert len(result.models_executed) == 3


class TestTrainingPath:
    def test_train_then_label(self, zoo, world_config, splits, train_config):
        train, test = splits
        items = train.items[:30]
        result = train_agent(
            "dqn",
            GroundTruth(zoo, items, world_config),
            [item.item_id for item in items],
            config=train_config.with_(episodes=30),
        )
        engine = LabelingEngine(
            zoo, AgentPredictor(result.agent, len(zoo)), world_config
        )
        labeled = label(engine, test[0], LabelingSpec(deadline=0.5))
        assert labeled.time_used <= 0.5 + 1e-9

    def test_train_reuses_existing_truth(self, splits, train_config, truth):
        train, _ = splits
        recorded = len(truth)
        result = train_agent(
            "dqn",
            truth,
            [item.item_id for item in train.items[:20]],
            config=train_config.with_(episodes=10),
        )
        assert result.total_steps > 0
        assert len(truth) == recorded  # replayed, nothing re-recorded
