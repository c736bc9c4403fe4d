"""Ordering policies: random, optimal, Q-greedy, rules, traces."""

import numpy as np
import pytest

from repro.scheduling.base import run_ordering_policy
from repro.scheduling.optimal import GreedyMarginalPolicy, OptimalPolicy
from repro.scheduling.qgreedy import (
    AgentPredictor,
    OraclePredictor,
    QGreedyPolicy,
)
from repro.scheduling.random_policy import RandomPolicy
from repro.scheduling.rules import HANDCRAFTED_RULES, Rule, RuleBasedPolicy
from repro.analysis.metrics import average_cost_curves


class TestTraceInvariants:
    @pytest.fixture(
        params=["random", "optimal", "oracle_greedy", "rules"], scope="class"
    )
    def policy(self, request, truth):
        return {
            "random": RandomPolicy(seed=1),
            "optimal": OptimalPolicy(),
            "oracle_greedy": GreedyMarginalPolicy(cost="time"),
            "rules": RuleBasedPolicy(seed=1),
        }[request.param]

    def test_full_trace_reaches_total_value(self, policy, truth, test_item_ids):
        for item_id in test_item_ids[:15]:
            trace = run_ordering_policy(policy, truth, item_id)
            assert trace.n_executed == len(truth.zoo)
            assert trace.value_obtained == pytest.approx(trace.total_value)
            assert trace.recall == pytest.approx(1.0)

    def test_no_duplicate_executions(self, policy, truth, test_item_ids):
        for item_id in test_item_ids[:15]:
            trace = run_ordering_policy(policy, truth, item_id)
            indices = [e.model_index for e in trace.executions]
            assert len(set(indices)) == len(indices)

    def test_serial_timing(self, policy, truth, test_item_ids, zoo):
        trace = run_ordering_policy(policy, truth, test_item_ids[0])
        clock = 0.0
        for e in trace.executions:
            assert e.start_time == pytest.approx(clock)
            assert e.duration == pytest.approx(zoo[e.model_index].time)
            clock = e.finish_time
        assert trace.makespan == pytest.approx(zoo.total_time)
        assert trace.serial_time == pytest.approx(zoo.total_time)

    def test_max_models_cap(self, policy, truth, test_item_ids):
        trace = run_ordering_policy(policy, truth, test_item_ids[0], max_models=3)
        assert trace.n_executed == 3


class TestCostToRecall:
    def test_zero_threshold_costs_one_model(self, truth, test_item_ids):
        trace = run_ordering_policy(RandomPolicy(seed=2), truth, test_item_ids[0])
        n, t = trace.cost_to_recall(0.0)
        assert n == 1.0
        assert t == pytest.approx(trace.executions[0].finish_time)

    def test_monotone_in_threshold(self, truth, test_item_ids):
        trace = run_ordering_policy(RandomPolicy(seed=2), truth, test_item_ids[0])
        thresholds = np.linspace(0, 1, 11)
        costs = [trace.cost_to_recall(t) for t in thresholds]
        for (n1, t1), (n2, t2) in zip(costs, costs[1:]):
            assert n2 >= n1 and t2 >= t1 - 1e-12

    def test_recall_by_deadline(self, truth, test_item_ids):
        trace = run_ordering_policy(OptimalPolicy(), truth, test_item_ids[0])
        assert trace.recall_by(0.0) == pytest.approx(0.0) or trace.total_value == 0
        assert trace.recall_by(trace.makespan) == pytest.approx(trace.recall)

    def test_exact_boundary_hit(self):
        """Regression: a recall threshold met *exactly* at a finish time.

        Both tolerances share :data:`repro.scheduling.base.TOLERANCE`, so
        the execution whose cumulative value equals the target exactly is
        counted, and the finish time ``cost_to_recall`` returns attains the
        threshold when fed back through ``recall_by``.
        """
        from repro.scheduling.base import (
            TOLERANCE,
            ScheduledExecution,
            ScheduleTrace,
        )

        trace = ScheduleTrace(item_id="x", total_value=1.0)
        for idx, (finish, value) in enumerate(
            [(0.25, 0.5), (0.75, 0.25), (1.0, 0.25)]
        ):
            trace.executions.append(
                ScheduledExecution(
                    model_index=idx,
                    model_name=f"m{idx}",
                    start_time=trace.makespan,
                    finish_time=finish,
                    marginal_value=value,
                    new_labels=1,
                )
            )
        assert TOLERANCE == 1e-9
        # 0.5 + 0.25 hits threshold 0.75 exactly at the second execution
        n, t = trace.cost_to_recall(0.75)
        assert (n, t) == (2.0, 0.75)
        # a deadline equal to that finish time must count the execution...
        assert trace.value_by(0.75) == pytest.approx(0.75)
        # ...so the (models, time) cost is consistent with recall_by
        assert trace.recall_by(t) >= 0.75


class TestOptimalPolicy:
    def test_orders_by_solo_value(self, truth, test_item_ids):
        policy = OptimalPolicy()
        for item_id in test_item_ids[:10]:
            trace = run_ordering_policy(policy, truth, item_id)
            solo = truth.solo_values(item_id)
            values = [solo[e.model_index] for e in trace.executions]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_beats_random_on_average(self, truth, test_item_ids):
        optimal_traces = [
            run_ordering_policy(OptimalPolicy(), truth, i) for i in test_item_ids
        ]
        random_traces = [
            run_ordering_policy(RandomPolicy(seed=9), truth, i)
            for i in test_item_ids
        ]
        opt = average_cost_curves("optimal", optimal_traces)
        rnd = average_cost_curves("random", random_traces)
        for threshold in (0.5, 0.8, 1.0):
            assert opt.at(threshold)[0] <= rnd.at(threshold)[0]
        assert opt.at(0.8)[0] < rnd.at(0.8)[0]


class TestOraclePredictorAndQGreedy:
    def test_oracle_qgreedy_near_optimal(self, truth, test_item_ids):
        """Q-greedy with a perfect predictor tracks the greedy oracle."""
        policy = QGreedyPolicy(OraclePredictor(truth))
        greedy = GreedyMarginalPolicy(cost="unit")
        for item_id in test_item_ids[:10]:
            trace_q = run_ordering_policy(policy, truth, item_id)
            trace_g = run_ordering_policy(greedy, truth, item_id)
            n_q, _ = trace_q.cost_to_recall(1.0)
            n_g, _ = trace_g.cost_to_recall(1.0)
            assert n_q == pytest.approx(n_g, abs=1.0)

    def test_agent_predictor_shape(self, trained, truth, zoo):
        from repro.core.state import LabelingState

        predictor = AgentPredictor(trained.agent, len(zoo))
        state = LabelingState(truth, truth.item_ids[0])
        q = predictor.predict(state)
        assert q.shape == (len(zoo),)

    def test_agent_predictor_rejects_small_agent(self, trained):
        with pytest.raises(ValueError):
            AgentPredictor(trained.agent, trained.agent.n_actions + 5)


class TestRules:
    def test_table2_has_ten_rules(self):
        assert len(HANDCRAFTED_RULES) == 10

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule("a", "bad", lambda l, v: True, "b", 0.0)

    def test_promotion_rule_fires(self, truth, zoo, test_item_ids):
        """After a person is detected, pose models gain weight."""
        policy = RuleBasedPolicy(seed=0)
        person_items = [
            i
            for i in test_item_ids
            if truth.record(i).item.content.has_person
        ]
        if not person_items:
            pytest.skip("no person items in sample")
        item_id = person_items[0]
        policy.reset(truth, item_id)
        from repro.core.state import LabelingState

        state = LabelingState(truth, item_id)
        object_index = zoo.index_of("mini_object")
        # only meaningful when the detector actually outputs "person"
        output = truth.output(item_id, object_index)
        names = [l.name for l in output.valuable(truth.threshold)]
        if "person" not in names:
            pytest.skip("detector missed the person on this item")
        state.execute(object_index)
        policy.observe(state, object_index)
        pose_index = zoo.index_of("mini_pose")
        assert policy._weights[pose_index] == pytest.approx(2.0)

    def test_rules_fire_at_most_once(self, truth, zoo, test_item_ids):
        policy = RuleBasedPolicy(seed=0)
        from repro.core.state import LabelingState

        for item_id in test_item_ids[:10]:
            policy.reset(truth, item_id)
            state = LabelingState(truth, item_id)
            for j in range(len(zoo)):
                state_weights_before = policy._weights.copy()
                state.execute(j)
                policy.observe(state, j)
            assert (policy._weights <= 4.0 + 1e-9).all()  # 2 promos max per task


class TestRandomPolicy:
    def test_different_seeds_different_orders(self, truth, test_item_ids):
        t1 = run_ordering_policy(RandomPolicy(seed=1), truth, test_item_ids[0])
        t2 = run_ordering_policy(RandomPolicy(seed=2), truth, test_item_ids[0])
        o1 = [e.model_index for e in t1.executions]
        o2 = [e.model_index for e in t2.executions]
        assert o1 != o2
