"""Serial baselines as predictors on the Q-greedy episode: random, optimal,
oracle, rules; traces and their cost-to-recall."""

import numpy as np
import pytest
from trace_oracle import check_trace

from repro.analysis.metrics import average_cost_curves
from repro.core.evaluation import marginal_gain
from repro.core.state import LabelingState
from repro.scheduling.base import TOLERANCE, ScheduledExecution, ScheduleTrace
from repro.scheduling.optimal import SoloValuePredictor
from repro.scheduling.qgreedy import (
    AgentPredictor,
    OraclePredictor,
    QGreedyPolicy,
)
from repro.scheduling.random_policy import RandomOrderPredictor
from repro.scheduling.rules import HANDCRAFTED_RULES, Rule, RulePredictor
from repro.spec import LabelingSpec


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:16]


@pytest.fixture(scope="module")
def worlds(truth, test_item_ids, full_world):
    """world -> (truth, ids to schedule)."""
    return {
        "mini": (truth, test_item_ids),
        "full": (full_world.truth, full_world.test_ids),
    }


class TestTraceInvariants:
    @pytest.fixture(
        params=["random", "optimal", "oracle_greedy", "rules"], scope="class"
    )
    def policy(self, request, truth):
        predictors = {
            "random": RandomOrderPredictor(seed=1),
            "optimal": SoloValuePredictor(),
            "oracle_greedy": OraclePredictor(truth),
            "rules": RulePredictor(seed=1),
        }
        return QGreedyPolicy(predictors[request.param])

    def test_full_trace_reaches_total_value(self, policy, truth, test_item_ids):
        for item_id in test_item_ids[:15]:
            trace = policy.schedule(truth, item_id)
            assert trace.n_executed == len(truth.zoo)
            assert trace.value_obtained == pytest.approx(trace.total_value)
            assert trace.recall == pytest.approx(1.0)

    def test_no_duplicate_executions(self, policy, truth, test_item_ids):
        for item_id in test_item_ids[:15]:
            trace = policy.schedule(truth, item_id)
            indices = [e.model_index for e in trace.executions]
            assert len(set(indices)) == len(indices)

    def test_serial_timing(self, policy, truth, test_item_ids, zoo):
        trace = policy.schedule(truth, test_item_ids[0])
        clock = 0.0
        for e in trace.executions:
            assert e.start_time == pytest.approx(clock)
            assert e.duration == pytest.approx(zoo[e.model_index].time)
            clock = e.finish_time
        assert trace.makespan == pytest.approx(zoo.total_time)
        assert trace.serial_time == pytest.approx(zoo.total_time)

    def test_max_models_cap(self, policy, truth, test_item_ids):
        trace = policy.schedule(truth, test_item_ids[0], max_models=3)
        assert trace.n_executed == 3


def _random_trace(truth, item_id, seed=2):
    return QGreedyPolicy(RandomOrderPredictor(seed=seed)).schedule(truth, item_id)


def _trace(total_value, steps):
    """A hand-built serial trace from ``(finish, marginal value)`` steps."""
    trace = ScheduleTrace(item_id="x", total_value=total_value)
    for idx, (finish, value) in enumerate(steps):
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
    return trace


class TestCostToRecall:
    def test_zero_threshold_costs_one_model(self, truth, test_item_ids):
        trace = _random_trace(truth, test_item_ids[0])
        n, t = trace.cost_to_recall(0.0)
        assert n == 1.0
        assert t == pytest.approx(trace.executions[0].finish_time)

    def test_monotone_in_threshold(self, truth, test_item_ids):
        trace = _random_trace(truth, test_item_ids[0])
        thresholds = np.linspace(0, 1, 11)
        costs = [trace.cost_to_recall(t) for t in thresholds]
        for (n1, t1), (n2, t2) in zip(costs, costs[1:]):
            assert n2 >= n1 and t2 >= t1 - 1e-12

    def test_recall_by_deadline(self, truth, test_item_ids):
        trace = QGreedyPolicy(SoloValuePredictor()).schedule(truth, test_item_ids[0])
        assert trace.recall_by(0.0) == pytest.approx(0.0) or trace.total_value == 0
        assert trace.recall_by(trace.makespan) == pytest.approx(trace.recall)

    def test_exact_boundary_hit(self):
        """Regression: a recall threshold met *exactly* at a finish time.

        Both tolerances share :data:`repro.scheduling.base.TOLERANCE`, so
        the execution whose cumulative value equals the target exactly is
        counted, and the finish time ``cost_to_recall`` returns attains the
        threshold when fed back through ``recall_by``.
        """
        trace = _trace(1.0, [(0.25, 0.5), (0.75, 0.25), (1.0, 0.25)])
        assert TOLERANCE == 1e-9
        # 0.5 + 0.25 hits threshold 0.75 exactly at the second execution
        n, t = trace.cost_to_recall(0.75)
        assert (n, t) == (2.0, 0.75)
        # a deadline equal to that finish time must count the execution...
        assert trace.value_by(0.75) == pytest.approx(0.75)
        # ...so the (models, time) cost is consistent with recall_by
        assert trace.recall_by(t) >= 0.75

    def test_tolerance_absorbs_a_rounded_sum(self):
        """Full recall is reached where the gains' float sum falls one ULP
        short of the total: ``0.1 + 0.7`` is just below ``0.8``."""
        assert 0.1 + 0.7 < 0.8
        trace = _trace(0.8, [(0.1, 0.1), (0.3, 0.7), (0.6, 0.0)])
        assert trace.cost_to_recall(1.0) == (2.0, 0.3)


class TestOptimalPolicy:
    def test_orders_by_solo_value(self, truth, test_item_ids):
        policy = QGreedyPolicy(SoloValuePredictor())
        for item_id in test_item_ids[:10]:
            trace = policy.schedule(truth, item_id)
            solo = truth.solo_values(item_id)
            values = [solo[e.model_index] for e in trace.executions]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_beats_random_on_average(self, truth, test_item_ids):
        optimal = QGreedyPolicy(SoloValuePredictor())
        optimal_traces = [optimal.schedule(truth, i) for i in test_item_ids]
        random_traces = [_random_trace(truth, i, seed=9) for i in test_item_ids]
        opt = average_cost_curves("optimal", optimal_traces)
        rnd = average_cost_curves("random", random_traces)
        for threshold in (0.5, 0.8, 1.0):
            assert opt.at(threshold)[0] <= rnd.at(threshold)[0]
        assert opt.at(0.8)[0] < rnd.at(0.8)[0]


class TestOraclePredictorAndQGreedy:
    @pytest.mark.parametrize("world", ["mini", "full"])
    def test_oracle_predicts_true_marginal_gains(self, worlds, world):
        """At every state along its Q-greedy traces, the oracle's dense
        row equals the per-model ``marginal_gain`` sums."""
        truth, item_ids = worlds[world]
        oracle = OraclePredictor(truth)
        policy = QGreedyPolicy(oracle)
        for item_id in item_ids[:10]:
            state = LabelingState(truth, item_id)
            for execution in policy.schedule(truth, item_id).executions:
                expected = [
                    marginal_gain(truth, item_id, state.confidences, j)
                    for j in range(len(truth.zoo))
                ]
                np.testing.assert_allclose(
                    oracle.predict(state), expected, rtol=0, atol=1e-12
                )
                state.execute(execution.model_index)

    def test_agent_predictor_shape(self, trained, truth, zoo):
        predictor = AgentPredictor(trained.agent, len(zoo))
        state = LabelingState(truth, truth.item_ids[0])
        q = predictor.predict(state)
        assert q.shape == (len(zoo),)

    def test_agent_predictor_rejects_small_agent(self, trained):
        with pytest.raises(ValueError):
            AgentPredictor(trained.agent, trained.agent.n_actions + 5)


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


class TestRules:
    def test_table2_has_ten_rules(self):
        assert len(HANDCRAFTED_RULES) == 10

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule("a", "bad", lambda l, v: True, "b", 0.0)

    def test_promotion_rule_fires(self, truth, zoo, test_item_ids):
        """After a person is detected, pose models gain weight."""
        person_items = [
            i for i in test_item_ids if truth.record(i).item.content.has_person
        ]
        if not person_items:
            pytest.skip("no person items in sample")
        item_id = person_items[0]
        object_index = zoo.index_of("mini_object")
        # only meaningful when the detector actually outputs "person"
        output = truth.output(item_id, object_index)
        names = [l.name for l in output.valuable(truth.threshold)]
        if "person" not in names:
            pytest.skip("detector missed the person on this item")
        predictor = RulePredictor(seed=0)
        state = LabelingState(truth, item_id)
        predictor.predict(state)
        state.execute(object_index)
        predictor.predict(state)
        assert predictor.weights[zoo.index_of("mini_pose")] == pytest.approx(2.0)

    def test_rules_fire_at_most_once(self, truth, zoo, test_item_ids):
        predictor = RulePredictor(seed=0)
        for item_id in test_item_ids[:10]:
            state = LabelingState(truth, item_id)
            for j in range(len(zoo)):
                predictor.predict(state)
                state.execute(j)
            assert (predictor.weights <= 4.0 + 1e-9).all()  # 2 promos max per task


class TestRandomPolicy:
    def test_different_seeds_different_orders(self, truth, test_item_ids):
        t1 = _random_trace(truth, test_item_ids[0], seed=1)
        t2 = _random_trace(truth, test_item_ids[0], seed=2)
        o1 = [e.model_index for e in t1.executions]
        o2 = [e.model_index for e in t2.executions]
        assert o1 != o2


@pytest.mark.parametrize("max_models", [None, 3])
@pytest.mark.parametrize("baseline", [SoloValuePredictor], ids=["solo_value"])
@pytest.mark.parametrize("world", ["mini", "full"])
def test_baseline_traces_obey_the_qgreedy_rule(worlds, world, baseline, max_models):
    """The trace oracle judges the deterministic baselines' traces."""
    truth, item_ids = worlds[world]
    predictor = baseline()
    spec = LabelingSpec(max_models=max_models)
    policy = QGreedyPolicy(predictor)
    for item_id in item_ids[:15]:
        check_trace(truth, predictor, spec, policy.schedule(truth, item_id, max_models))
