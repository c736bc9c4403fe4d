"""Vectorized dispatch ticks must replay their serial counterparts exactly.

Every regime's ``schedule_batch`` promises trace *parity* with the
per-item serial loop: round ``k`` of the batch is step ``k`` of each
serial run, and the masked argmax replays serial selection including
first-index tie-breaking.  These tests enforce that promise trace-for-
trace — executions compared field-exact — across budgets, predictors,
and deliberately tie-heavy Q surfaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchedBackend, LabelingJob, SerialBackend
from repro.scheduling.deadline import CostQGreedyScheduler
from repro.scheduling.deadline_memory import MemoryDeadlineScheduler
from repro.scheduling.qgreedy import (
    AgentPredictor,
    OraclePredictor,
    QGreedyPolicy,
    QValuePredictor,
)
from repro.spec import LabelingSpec


@pytest.fixture(scope="module")
def agent_predictor(trained, zoo):
    return AgentPredictor(trained.agent, len(zoo))


@pytest.fixture(scope="module")
def oracle_predictor(truth):
    return OraclePredictor(truth)


@pytest.fixture(scope="module")
def items(test_item_ids):
    return test_item_ids[:16]


def assert_traces_equal(batch, serial):
    assert len(batch) == len(serial)
    for got, want in zip(batch, serial):
        assert got.item_id == want.item_id
        assert got.total_value == want.total_value
        assert got.executions == want.executions


class ConstantPredictor(QValuePredictor):
    """Every model ties at the same Q — selection is pure tie-breaking."""

    def __init__(self, n_models: int, value: float = 1.0):
        self.n_models = n_models
        self.value = value

    def predict(self, state):
        return np.full(self.n_models, self.value)


class DuplicateMaxPredictor(QValuePredictor):
    """Two models share the running maximum at every step.

    Distinct sub-maximal values elsewhere make any deviation from
    first-index tie-breaking visible immediately.
    """

    def __init__(self, n_models: int, peaks=(2, 5)):
        values = np.linspace(0.1, 0.9, n_models)
        values[list(peaks)] = 7.0
        self.values = values

    def predict(self, state):
        return self.values.copy()


DEADLINES = (0.0, 0.05, 0.2, 0.35, 0.5, 2.0, 100.0)


class TestQGreedyBatchParity:
    @pytest.mark.parametrize("max_models", (None, 1, 3, 100))
    def test_matches_serial(self, truth, oracle_predictor, items, max_models):
        batch = QGreedyPolicy(oracle_predictor).schedule_batch(
            truth, items, max_models=max_models
        )
        serial = [
            QGreedyPolicy(oracle_predictor).schedule(truth, i, max_models=max_models)
            for i in items
        ]
        assert_traces_equal(batch, serial)

    def test_matches_serial_with_agent(self, truth, agent_predictor, items):
        batch = QGreedyPolicy(agent_predictor).schedule_batch(
            truth, items, max_models=4
        )
        serial = [
            QGreedyPolicy(agent_predictor).schedule(truth, i, max_models=4)
            for i in items
        ]
        assert_traces_equal(batch, serial)

    def test_empty_batch(self, truth, oracle_predictor):
        assert QGreedyPolicy(oracle_predictor).schedule_batch(truth, []) == []

    @pytest.mark.parametrize(
        "predictor_cls", (ConstantPredictor, DuplicateMaxPredictor)
    )
    def test_tied_q_values_break_ties_like_serial(
        self, truth, zoo, items, predictor_cls
    ):
        predictor = predictor_cls(len(zoo))
        batch = QGreedyPolicy(predictor).schedule_batch(truth, items)
        serial = [QGreedyPolicy(predictor).schedule(truth, i) for i in items]
        assert_traces_equal(batch, serial)


class TestDeadlineBatchParity:
    @pytest.mark.parametrize("deadline", DEADLINES)
    def test_matches_serial(self, truth, oracle_predictor, items, deadline):
        scheduler = CostQGreedyScheduler(oracle_predictor)
        batch = scheduler.schedule_batch(truth, items, deadline)
        serial = [scheduler.schedule(truth, i, deadline) for i in items]
        assert_traces_equal(batch, serial)

    @pytest.mark.parametrize("deadline", (0.2, 0.5))
    def test_matches_serial_with_agent(self, truth, agent_predictor, items, deadline):
        scheduler = CostQGreedyScheduler(agent_predictor)
        batch = scheduler.schedule_batch(truth, items, deadline)
        serial = [scheduler.schedule(truth, i, deadline) for i in items]
        assert_traces_equal(batch, serial)

    def test_tied_ratios_break_ties_like_serial(self, truth, zoo, items):
        # A constant Q makes the selection ratio Q/time — models sharing a
        # time tier tie, so the argmax must pick the first index like the
        # serial loop does.
        predictor = ConstantPredictor(len(zoo))
        scheduler = CostQGreedyScheduler(predictor)
        batch = scheduler.schedule_batch(truth, items, 0.5)
        serial = [scheduler.schedule(truth, i, 0.5) for i in items]
        assert_traces_equal(batch, serial)

    def test_zero_deadline_executes_nothing(self, truth, oracle_predictor, items):
        for trace in CostQGreedyScheduler(oracle_predictor).schedule_batch(
            truth, items, 0.0
        ):
            assert trace.n_executed == 0

    def test_negative_deadline_rejected(self, truth, oracle_predictor, items):
        with pytest.raises(ValueError):
            CostQGreedyScheduler(oracle_predictor).schedule_batch(
                truth, items, -0.1
            )


class TestMemoryDeadlineBatchParity:
    @pytest.mark.parametrize(
        "deadline,memory",
        [(0.0, 8000.0), (0.2, 500.0), (0.35, 2048.0), (0.5, 8000.0), (2.0, 100.0)],
    )
    def test_matches_serial(self, truth, oracle_predictor, items, deadline, memory):
        scheduler = MemoryDeadlineScheduler(oracle_predictor)
        batch = scheduler.schedule_batch(truth, items, deadline, memory)
        serial = [scheduler.schedule(truth, i, deadline, memory) for i in items]
        assert_traces_equal(batch, serial)

    def test_matches_serial_with_agent(self, truth, agent_predictor, items):
        scheduler = MemoryDeadlineScheduler(agent_predictor)
        batch = scheduler.schedule_batch(truth, items, 0.5, 4000.0)
        serial = [scheduler.schedule(truth, i, 0.5, 4000.0) for i in items]
        assert_traces_equal(batch, serial)

    def test_tied_areas_break_ties_like_serial(self, truth, zoo, items):
        predictor = DuplicateMaxPredictor(len(zoo))
        scheduler = MemoryDeadlineScheduler(predictor)
        batch = scheduler.schedule_batch(truth, items, 0.5, 4000.0)
        serial = [scheduler.schedule(truth, i, 0.5, 4000.0) for i in items]
        assert_traces_equal(batch, serial)

    def test_negative_budgets_rejected(self, truth, oracle_predictor, items):
        scheduler = MemoryDeadlineScheduler(oracle_predictor)
        with pytest.raises(ValueError):
            scheduler.schedule_batch(truth, items, -1.0, 100.0)
        with pytest.raises(ValueError):
            scheduler.schedule_batch(truth, items, 1.0, -100.0)


class TestBatchedBackendDelegation:
    """BatchedBackend now routes *every* regime through a vectorized tick."""

    SPECS = (
        LabelingSpec(),
        LabelingSpec(max_models=4),
        LabelingSpec(deadline=0.35),
        LabelingSpec(deadline=0.5, memory_budget=8000.0),
    )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.regime)
    def test_matches_serial_backend(self, truth, oracle_predictor, items, spec):
        job = LabelingJob(truth=truth, item_ids=tuple(items), spec=spec)
        batch = BatchedBackend().run(job, oracle_predictor)
        serial = SerialBackend().run(job, oracle_predictor)
        assert_traces_equal(batch, serial)


class TestOraclePredictorCache:
    def test_lru_evicts_by_access_not_insertion(self, truth, items, monkeypatch):
        predictor = OraclePredictor(truth)
        monkeypatch.setattr(OraclePredictor, "CACHE_ITEMS", 2)
        a, b, c = items[:3]
        predictor._gain_matrix(a)
        predictor._gain_matrix(b)
        predictor._gain_matrix(a)  # refresh a: b is now least recently used
        predictor._gain_matrix(c)
        assert set(predictor._gain_matrices) == {a, c}

    def test_cache_bounded(self, truth, items, monkeypatch):
        predictor = OraclePredictor(truth)
        monkeypatch.setattr(OraclePredictor, "CACHE_ITEMS", 3)
        for item_id in items[:10]:
            predictor._gain_matrix(item_id)
        assert len(predictor._gain_matrices) == 3

    def test_concurrent_build_is_single_and_consistent(self, truth, items):
        import threading

        predictor = OraclePredictor(truth)
        builds = []
        original = truth.valuable

        def counting_valuable(item_id, index):
            builds.append(index)
            return original(item_id, index)

        predictor.truth = _ValuableCounter(truth, counting_valuable)
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(slot):
            barrier.wait()
            results[slot] = predictor._gain_matrix(items[0])

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # One build: each zoo model's valuable() read exactly once.
        assert len(builds) == len(truth.zoo)
        for matrix in results[1:]:
            assert matrix is results[0]

    def test_eviction_does_not_corrupt_predictions(self, truth, items, monkeypatch):
        monkeypatch.setattr(OraclePredictor, "CACHE_ITEMS", 1)
        small = OraclePredictor(truth)
        large = OraclePredictor(truth)
        scheduler_small = CostQGreedyScheduler(small)
        scheduler_large = CostQGreedyScheduler(large)
        batch = scheduler_small.schedule_batch(truth, items[:6], 0.5)
        serial = [scheduler_large.schedule(truth, i, 0.5) for i in items[:6]]
        assert_traces_equal(batch, serial)


class _ValuableCounter:
    """GroundTruth proxy that counts valuable() reads (build detection)."""

    def __init__(self, truth, counting_valuable):
        self._truth = truth
        self._valuable = counting_valuable

    def valuable(self, item_id, index):
        return self._valuable(item_id, index)

    def __getattr__(self, name):
        return getattr(self._truth, name)
