"""AdaptiveModelScheduler: the public end-to-end API (Fig. 3)."""

import pytest

from repro.core.framework import AdaptiveModelScheduler, LabelingSpec


@pytest.fixture(scope="module")
def scheduler(zoo, world_config, trained):
    return AdaptiveModelScheduler(zoo, world_config, agent=trained.agent)


@pytest.fixture(scope="module")
def shared_truth(truth):
    return truth


class TestLabeling:
    def test_unconstrained_label(self, scheduler, splits, shared_truth):
        _, test = splits
        result = scheduler.label(test[0], truth=shared_truth)
        assert result.item_id == test[0].item_id
        assert result.recall == pytest.approx(1.0)
        assert len(result.models_executed) == len(scheduler.zoo)
        # labels sorted by confidence, descending
        confs = [l.confidence for l in result.labels]
        assert confs == sorted(confs, reverse=True)

    def test_max_models_cap(self, scheduler, splits, shared_truth):
        _, test = splits
        result = scheduler.label(
            test[1], LabelingSpec(max_models=4), truth=shared_truth
        )
        assert len(result.models_executed) == 4

    def test_deadline_uses_algorithm1(self, scheduler, splits, shared_truth, zoo):
        _, test = splits
        result = scheduler.label(
            test[2], LabelingSpec(deadline=0.3), truth=shared_truth
        )
        assert result.time_used <= 0.3 + 1e-9
        assert result.trace.serial_time <= 0.3 + 1e-9

    def test_memory_budget_uses_algorithm2(
        self, scheduler, splits, shared_truth, zoo
    ):
        _, test = splits
        result = scheduler.label(
            test[3],
            LabelingSpec(deadline=0.5, memory_budget=8000.0),
            truth=shared_truth,
        )
        # parallel: makespan bounded, memory respected
        for e in result.trace.executions:
            assert zoo[e.model_index].mem <= 8000.0

    def test_memory_without_deadline_rejected(self, scheduler, splits):
        _, test = splits
        with pytest.raises(ValueError, match="requires a deadline"):
            scheduler.label(test[0], LabelingSpec(memory_budget=8000.0))

    def test_label_names_match_valuable_outputs(
        self, scheduler, splits, shared_truth, world_config
    ):
        _, test = splits
        result = scheduler.label(test[4], truth=shared_truth)
        # every reported label must be a valuable output of an executed model
        valid_names = set()
        for e in result.trace.executions:
            output = shared_truth.output(test[4].item_id, e.model_index)
            valid_names.update(
                l.name for l in output.valuable(world_config.valuable_confidence)
            )
        assert set(result.label_names) <= valid_names

    def test_label_stream(self, scheduler, splits, shared_truth):
        _, test = splits
        results = list(
            scheduler.label_stream(
                test[:5], LabelingSpec(deadline=0.4), truth=shared_truth
            )
        )
        assert len(results) == 5
        for item, result in zip(test[:5], results):
            assert result.item_id == item.item_id

    def test_untrained_scheduler_raises(self, zoo, world_config, splits):
        _, test = splits
        fresh = AdaptiveModelScheduler(zoo, world_config)
        with pytest.raises(RuntimeError, match="no trained agent"):
            fresh.label(test[0])

    def test_label_without_shared_truth(self, scheduler, splits):
        """The framework can execute the zoo on-the-fly for new items."""
        _, test = splits
        result = scheduler.label(test[5], LabelingSpec(max_models=3))
        assert len(result.models_executed) == 3


class TestTrainingPath:
    def test_train_then_label(self, zoo, world_config, splits, train_config):
        train, test = splits
        scheduler = AdaptiveModelScheduler(zoo, world_config)
        result = scheduler.train(
            train.items[:30],
            algo="dqn",
            train_config=train_config.with_(episodes=30),
        )
        assert scheduler.agent is result.agent
        labeled = scheduler.label(test[0], LabelingSpec(deadline=0.5))
        assert labeled.time_used <= 0.5 + 1e-9

    def test_train_reuses_existing_truth(
        self, zoo, world_config, splits, train_config, truth
    ):
        train, _ = splits
        scheduler = AdaptiveModelScheduler(zoo, world_config)
        result = scheduler.train(
            train.items[:20],
            algo="dqn",
            train_config=train_config.with_(episodes=10),
            truth=truth,
        )
        assert result.total_steps > 0
