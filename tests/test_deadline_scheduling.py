"""Algorithm 1 + deadline baselines: budget compliance and quality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.deadline import (
    CostQGreedyScheduler,
    QGreedyDeadlineScheduler,
    RelaxedOptimalDeadline,
)
from repro.scheduling.qgreedy import AgentPredictor, OraclePredictor
from repro.scheduling.random_policy import RandomStepPredictor


@pytest.fixture(scope="module")
def predictor(trained, zoo):
    return AgentPredictor(trained.agent, len(zoo))


budgets = st.floats(min_value=0.0, max_value=1.2)


class TestAlgorithm1:
    @settings(max_examples=25, deadline=None)
    @given(budget=budgets, item=st.integers(0, 29))
    def test_never_exceeds_budget(self, truth, predictor, test_item_ids, budget, item):
        scheduler = CostQGreedyScheduler(predictor)
        trace = scheduler.schedule(truth, test_item_ids[item % len(test_item_ids)], budget)
        assert trace.serial_time <= budget + 1e-9
        assert trace.makespan <= budget + 1e-9

    def test_zero_budget_executes_nothing(self, truth, predictor, test_item_ids):
        trace = CostQGreedyScheduler(predictor).schedule(truth, test_item_ids[0], 0.0)
        assert trace.n_executed == 0
        assert trace.value_obtained == 0.0

    def test_huge_budget_executes_everything(
        self, truth, predictor, test_item_ids, zoo
    ):
        trace = CostQGreedyScheduler(predictor).schedule(
            truth, test_item_ids[0], zoo.total_time * 2
        )
        assert trace.n_executed == len(zoo)
        assert trace.recall == pytest.approx(1.0)

    def test_filters_unaffordable_models(self, truth, predictor, test_item_ids, zoo):
        """With a budget below the cheapest model nothing runs."""
        cheapest = float(zoo.times.min())
        trace = CostQGreedyScheduler(predictor).schedule(
            truth, test_item_ids[0], cheapest * 0.9
        )
        assert trace.n_executed == 0

    def test_negative_budget_rejected(self, truth, predictor, test_item_ids):
        with pytest.raises(ValueError):
            CostQGreedyScheduler(predictor).schedule(truth, test_item_ids[0], -1.0)

    def test_beats_random_under_tight_budget(self, truth, predictor, test_item_ids):
        budget = 0.25
        ours = np.mean(
            [
                CostQGreedyScheduler(predictor)
                .schedule(truth, i, budget)
                .recall_by(budget)
                for i in test_item_ids
            ]
        )
        rand = np.mean(
            [
                QGreedyDeadlineScheduler(RandomStepPredictor(seed=3))
                .schedule(truth, i, budget)
                .recall_by(budget)
                for i in test_item_ids
            ]
        )
        assert ours > rand

    def test_oracle_predictor_at_least_agent(self, truth, trained, test_item_ids, zoo):
        """A perfect predictor can't do worse on average."""
        budget = 0.3
        agent_pred = AgentPredictor(trained.agent, len(zoo))
        oracle = OraclePredictor(truth)
        agent_recall = np.mean(
            [
                CostQGreedyScheduler(agent_pred)
                .schedule(truth, i, budget)
                .recall_by(budget)
                for i in test_item_ids
            ]
        )
        oracle_recall = np.mean(
            [
                CostQGreedyScheduler(oracle)
                .schedule(truth, i, budget)
                .recall_by(budget)
                for i in test_item_ids
            ]
        )
        assert oracle_recall >= agent_recall - 0.02


class TestQGreedyDeadline:
    def test_stops_at_deadline(self, truth, predictor, test_item_ids, zoo):
        budget = 0.3
        trace = QGreedyDeadlineScheduler(predictor).schedule(
            truth, test_item_ids[0], budget
        )
        started_before = [e for e in trace.executions if e.start_time < budget]
        assert len(started_before) == trace.n_executed
        # it may overshoot by at most one model
        assert trace.makespan <= budget + zoo.times.max() + 1e-9

    def test_value_by_deadline_excludes_overshoot(
        self, truth, predictor, test_item_ids
    ):
        budget = 0.3
        trace = QGreedyDeadlineScheduler(predictor).schedule(
            truth, test_item_ids[0], budget
        )
        counted = trace.value_by(budget)
        assert counted <= trace.value_obtained + 1e-9


class TestRelaxedOptimal:
    @settings(max_examples=20, deadline=None)
    @given(budget=budgets, item=st.integers(0, 19))
    def test_upper_bounds_algorithm1(
        self, truth, predictor, test_item_ids, budget, item
    ):
        """optimal* must dominate any feasible policy (§V-C)."""
        item_id = test_item_ids[item % len(test_item_ids)]
        star = RelaxedOptimalDeadline().value(truth, item_id, budget)
        ours = (
            CostQGreedyScheduler(predictor)
            .schedule(truth, item_id, budget)
            .value_by(budget)
        )
        assert star >= ours - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(b1=budgets, b2=budgets, item=st.integers(0, 19))
    def test_monotone_in_budget(self, truth, test_item_ids, b1, b2, item):
        item_id = test_item_ids[item % len(test_item_ids)]
        lo, hi = sorted((b1, b2))
        star = RelaxedOptimalDeadline()
        assert star.value(truth, item_id, hi) >= star.value(truth, item_id, lo) - 1e-9

    def test_full_budget_reaches_total(self, truth, test_item_ids, zoo):
        star = RelaxedOptimalDeadline()
        for item_id in test_item_ids[:10]:
            value = star.value(truth, item_id, zoo.total_time)
            assert value == pytest.approx(truth.total_value(item_id), abs=1e-9)

    def test_recall_of_zero_value_item_is_one(self, truth, zoo, test_item_ids):
        star = RelaxedOptimalDeadline()
        zero_items = [
            i for i in truth.item_ids if truth.total_value(i) == 0.0
        ]
        if not zero_items:
            pytest.skip("no zero-value items in this world sample")
        assert star.recall(truth, zero_items[0], 0.5) == 1.0
