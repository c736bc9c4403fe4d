"""Q-row reuse in the lock-step driver is exact and only where it may be.

``run_lockstep`` keeps an item's Q row until ``LabelingState.revision``
moves, for predictors that read the state only through ``vector``.  These
tests pin the two halves of that contract: the revision moves exactly when
the vector gains a bit, and predictors reading more of the state
(``OraclePredictor`` its confidences, ``GraphPredictor`` its executed
models) opt out, so their batched traces still equal the serial ones on
items where an execution adds no new bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import WorldConfig
from repro.core.state import LabelingState
from repro.data.datasets import generate_dataset
from repro.engine import BatchedBackend, LabelingJob, SerialBackend
from repro.graph import build_relationship_graph
from repro.graph.policy import GraphPredictor
from repro.labels import build_label_space
from repro.scheduling.qgreedy import AgentPredictor, OraclePredictor
from repro.spec import LabelingSpec
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth


@pytest.fixture(scope="module")
def full_truth() -> GroundTruth:
    """The full world, where several models emit the same labels."""
    config = WorldConfig(vocab_scale="full")
    space = build_label_space("full")
    items = generate_dataset(space, config, "mscoco2017", 40)
    return GroundTruth(build_zoo(config, space), items, config)


SPECS = (
    LabelingSpec(),
    LabelingSpec(deadline=0.35),
    LabelingSpec(deadline=0.5, memory_budget=8000.0),
)


class _Zoo(list):
    space = range(5)


class _Truth:
    """Four models over five labels, each model's valuable output fixed."""

    zoo = _Zoo([None] * 4)
    OUTPUTS = {
        0: ([1, 2], [0.6, 0.6]),
        1: ([1], [0.5]),  # labels all already set by model 0
        2: ([2], [0.9]),  # a confidence-only improvement over model 0
        3: ([3], [0.7]),  # a new label
    }

    def valuable(self, item_id, index):
        ids, confs = self.OUTPUTS[index]
        return np.asarray(ids), np.asarray(confs)


def _after(*models) -> LabelingState:
    state = LabelingState(_Truth(), "item")
    for index in models:
        state.execute(index)
    return state


class TestRevision:
    def test_a_new_label_moves_it(self):
        assert _after().revision == 0
        assert _after(0).revision == 1
        assert _after(0, 3).revision == 2

    def test_labels_all_already_set_do_not(self):
        before, after = _after(0), _after(0, 1)
        assert after.revision == before.revision
        assert np.array_equal(after.vector, before.vector)
        assert np.array_equal(after.confidences, before.confidences)

    def test_a_confidence_only_improvement_does_not(self):
        before, after = _after(0), _after(0, 2)
        assert after.confidences[2] > before.confidences[2]
        assert after.value > before.value
        assert after.revision == before.revision
        assert np.array_equal(after.vector, before.vector)

    def test_moves_exactly_when_the_vector_does_on_a_full_world(self, full_truth):
        cases = 0
        for item_id in full_truth.item_ids:
            state = LabelingState(full_truth, item_id)
            for index in range(len(full_truth.zoo)):
                bits, revision = state.vector.copy(), state.revision
                state.execute(index)
                moved = not np.array_equal(bits, state.vector)
                assert (state.revision != revision) == moved
                cases += not moved and len(full_truth.valuable(item_id, index)[0])
        assert cases  # labels already set by other models occur


def _oracle(truth, train):
    return OraclePredictor(truth)


def _graph(truth, train):
    return GraphPredictor(build_relationship_graph(truth, train), truth, train)


def _stalls(truth, trace) -> bool:
    """Whether an execution of ``trace`` changed the item's confidences but
    not its vector: where a reused row would go stale for these predictors."""
    state = LabelingState(truth, trace.item_id)
    stalled = False
    for execution in trace.executions:
        revision, confs = state.revision, state.confidences.copy()
        state.execute(execution.model_index)
        improved = not np.array_equal(confs, state.confidences)
        stalled |= improved and state.revision == revision
    return stalled


@pytest.mark.parametrize("make", (_oracle, _graph), ids=("oracle", "graph"))
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.regime)
def test_state_reading_predictors_are_never_reused(full_truth, make, spec):
    item_ids = list(full_truth.item_ids)
    predictor = make(full_truth, item_ids[24:])
    assert not predictor.observation_only
    job = LabelingJob(truth=full_truth, item_ids=tuple(item_ids[:24]), spec=spec)
    serial = SerialBackend().run(job, predictor)
    assert any(_stalls(full_truth, trace) for trace in serial)
    batched = BatchedBackend().run(job, predictor)
    for got, ref in zip(batched, serial):
        assert got.item_id == ref.item_id
        assert got.executions == ref.executions


def test_vector_reading_predictors_are_reused():
    assert AgentPredictor.observation_only
