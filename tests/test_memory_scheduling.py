"""Algorithm 2 + parallel executor: memory compliance, parallelism, quality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.deadline_memory import (
    MemoryDeadlineScheduler,
    RandomMemoryDeadlineScheduler,
    RelaxedOptimalMemoryDeadline,
)
from repro.scheduling.qgreedy import AgentPredictor, OraclePredictor


@pytest.fixture(scope="module")
def predictor(trained, zoo):
    return AgentPredictor(trained.agent, len(zoo))


def memory_usage_over_time(trace, zoo):
    """(time, usage) events to verify the memory budget at every instant."""
    events = []
    for e in trace.executions:
        events.append((e.start_time, zoo[e.model_index].mem))
        events.append((e.finish_time, -zoo[e.model_index].mem))
    events.sort(key=lambda ev: (ev[0], ev[1] > 0))  # releases before starts
    usage = 0.0
    peaks = []
    for _, delta in events:
        usage += delta
        peaks.append(usage)
    return peaks


class TestAlgorithm2:
    @settings(max_examples=20, deadline=None)
    @given(
        budget=st.floats(0.1, 1.5),
        mem=st.sampled_from([8000.0, 12000.0, 16000.0]),
        item=st.integers(0, 19),
    )
    def test_memory_budget_respected_at_all_times(
        self, truth, zoo, predictor, test_item_ids, budget, mem, item
    ):
        item_id = test_item_ids[item % len(test_item_ids)]
        trace = MemoryDeadlineScheduler(predictor).schedule(
            truth, item_id, budget, mem
        )
        peaks = memory_usage_over_time(trace, zoo)
        assert all(p <= mem + 1e-6 for p in peaks)

    def test_parallel_execution_happens(self, truth, zoo, predictor, test_item_ids):
        """With generous memory, executions overlap in time."""
        trace = MemoryDeadlineScheduler(predictor).schedule(
            truth, test_item_ids[0], 2.0, 16000.0
        )
        overlaps = 0
        executions = trace.executions
        for a in executions:
            for b in executions:
                if a is not b and a.start_time < b.finish_time - 1e-12 and (
                    b.start_time < a.finish_time - 1e-12
                ):
                    overlaps += 1
        assert overlaps > 0

    def test_no_duplicate_models(self, truth, predictor, test_item_ids):
        trace = MemoryDeadlineScheduler(predictor).schedule(
            truth, test_item_ids[0], 2.0, 12000.0
        )
        indices = [e.model_index for e in trace.executions]
        assert len(indices) == len(set(indices))

    def test_zero_budgets(self, truth, predictor, test_item_ids):
        trace = MemoryDeadlineScheduler(predictor).schedule(
            truth, test_item_ids[0], 0.0, 8000.0
        )
        assert trace.n_executed == 0
        with pytest.raises(ValueError):
            MemoryDeadlineScheduler(predictor).schedule(
                truth, test_item_ids[0], -0.1, 8000.0
            )

    def test_a_model_that_exactly_fits_the_deadline_starts(
        self, truth, zoo, test_item_ids
    ):
        """The pivot may finish *at* the deadline: with the budget equal to
        the fastest model's time, that model still runs."""
        budget = float(zoo.times.min())
        trace = MemoryDeadlineScheduler(OraclePredictor(truth)).schedule(
            truth, test_item_ids[0], budget, float(zoo.mems.sum())
        )
        assert trace.n_executed >= 1
        assert all(e.finish_time <= budget for e in trace.executions)

    def test_tiny_memory_runs_serially_small_models(
        self, truth, zoo, predictor, test_item_ids
    ):
        tiny = float(zoo.mems.min())
        trace = MemoryDeadlineScheduler(predictor).schedule(
            truth, test_item_ids[0], 1.0, tiny
        )
        for e in trace.executions:
            assert zoo[e.model_index].mem <= tiny + 1e-9
        peaks = memory_usage_over_time(trace, zoo)
        assert all(p <= tiny + 1e-6 for p in peaks)

    def test_more_memory_never_much_worse(self, truth, predictor, test_item_ids):
        """Average recall should weakly improve with memory (shape check)."""
        budget = 0.4
        recalls = []
        for mem in (8000.0, 16000.0):
            values = [
                MemoryDeadlineScheduler(predictor)
                .schedule(truth, i, budget, mem)
                .recall_by(budget)
                for i in test_item_ids
            ]
            recalls.append(float(np.mean(values)))
        assert recalls[1] >= recalls[0] - 0.05

    def test_beats_random_packing(self, truth, predictor, test_item_ids):
        # Tight enough that selection matters: the mini zoo totals 1 s of
        # serial work, so generous budgets saturate every policy.
        budget, mem = 0.1, 8000.0
        ours = np.mean(
            [
                MemoryDeadlineScheduler(predictor)
                .schedule(truth, i, budget, mem)
                .recall_by(budget)
                for i in test_item_ids
            ]
        )
        rand = np.mean(
            [
                RandomMemoryDeadlineScheduler(seed=7)
                .schedule(truth, i, budget, mem)
                .recall_by(budget)
                for i in test_item_ids
            ]
        )
        assert ours > rand


class TestRandomMemoryScheduler:
    @settings(max_examples=15, deadline=None)
    @given(
        budget=st.floats(0.1, 1.0),
        mem=st.sampled_from([8000.0, 12000.0]),
        item=st.integers(0, 9),
    )
    def test_memory_respected(self, truth, zoo, test_item_ids, budget, mem, item):
        item_id = test_item_ids[item % len(test_item_ids)]
        trace = RandomMemoryDeadlineScheduler(seed=1).schedule(
            truth, item_id, budget, mem
        )
        peaks = memory_usage_over_time(trace, zoo)
        assert all(p <= mem + 1e-6 for p in peaks)

    def test_may_overshoot_deadline(self, truth, zoo, test_item_ids):
        """Paper semantics: packing ignores finish times, so the last wave
        can straddle the deadline (wasted work)."""
        budget = 0.15
        overshoots = 0
        for item_id in test_item_ids[:10]:
            trace = RandomMemoryDeadlineScheduler(seed=2).schedule(
                truth, item_id, budget, 16000.0
            )
            overshoots += sum(
                1 for e in trace.executions if e.finish_time > budget + 1e-9
            )
        assert overshoots > 0


class TestRelaxedOptimalMemory:
    @settings(max_examples=15, deadline=None)
    @given(
        budget=st.floats(0.0, 1.0),
        mem=st.sampled_from([8000.0, 12000.0, 16000.0]),
        item=st.integers(0, 9),
    )
    def test_upper_bounds_algorithm2(
        self, truth, predictor, test_item_ids, budget, mem, item
    ):
        item_id = test_item_ids[item % len(test_item_ids)]
        star = RelaxedOptimalMemoryDeadline().value(truth, item_id, budget, mem)
        ours_trace = MemoryDeadlineScheduler(predictor).schedule(
            truth, item_id, budget, mem
        )
        assert star >= ours_trace.value_by(budget) - 1e-9

    def test_zero_value_item_recall_one(self, truth):
        zero_items = [i for i in truth.item_ids if truth.total_value(i) == 0.0]
        if not zero_items:
            pytest.skip("no zero-value items")
        star = RelaxedOptimalMemoryDeadline()
        assert star.recall(truth, zero_items[0], 0.5, 8000.0) == 1.0
