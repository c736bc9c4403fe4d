"""The lock-step driver forwards only rows whose observation changed.

An episode asks for Q values only once it holds a non-empty mask, under
either driver, and the lock-step driver reuses an item's row until its
state vector moves — so on one job the rows ``BatchedBackend`` carries
through ``predict_batch`` equal the ``predict`` calls ``SerialBackend``
makes minus those that repeat the item's previous vector, and the
``repro_sched_*`` series read what actually happened: one selection round
per pick wave (as many as the longest item's serial predicts), one
executed model per trace entry.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.engine import BatchedBackend, LabelingJob, SerialBackend
from repro.obs import MetricsRegistry, install, uninstall
from repro.scheduling.qgreedy import AgentPredictor, QValuePredictor
from repro.spec import LabelingSpec

SPECS = (
    LabelingSpec(),
    LabelingSpec(deadline=0.35),
    LabelingSpec(deadline=0.5, memory_budget=8000.0),
)


class CountingPredictor(QValuePredictor):
    def __init__(self, inner: QValuePredictor):
        self.inner = inner
        self.calls = self.batch_calls = self.rows = 0
        #: Serial predicts per item, and those repeating the item's
        #: previous vector (what the lock-step driver reuses instead).
        self.per_item: Counter = Counter()
        self.repeats = 0
        self._last: dict = {}

    def predict(self, state):
        self.calls += 1
        self.per_item[state.item_id] += 1
        vector = state.vector.tobytes()
        self.repeats += self._last.get(state.item_id) == vector
        self._last[state.item_id] = vector
        return self.inner.predict(state)

    def predict_batch(self, states):
        self.batch_calls += 1
        self.rows += len(states)
        return self.inner.predict_batch(states)


@pytest.fixture()
def counting(trained, zoo):
    return CountingPredictor(AgentPredictor(trained.agent, len(zoo)))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.regime)
def test_batched_rows_equal_serial_predicts(truth, test_item_ids, counting, spec):
    job = LabelingJob(truth=truth, item_ids=tuple(test_item_ids[:24]), spec=spec)
    SerialBackend().run(job, counting)
    serial_predicts = counting.calls
    assert 0 < counting.repeats < serial_predicts  # the job exercises reuse
    BatchedBackend().run(job, counting)
    assert counting.calls == serial_predicts  # the batched path stacks
    assert counting.rows == serial_predicts - counting.repeats


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.regime)
def test_series_count_rounds_and_trace_entries(truth, test_item_ids, counting, spec):
    job = LabelingJob(truth=truth, item_ids=tuple(test_item_ids[:24]), spec=spec)
    SerialBackend().run(job, counting)
    # Every round answers each waiting item once, so the rounds are the
    # longest item's serial predicts; forwards skip rounds nothing moved in.
    rounds = max(counting.per_item.values())
    registry = MetricsRegistry()
    install(registry)
    try:
        traces = BatchedBackend().run(job, counting)
    finally:
        uninstall()
    text = registry.render_prometheus()
    label = f'{{regime="{spec.regime}"}}'
    executed = sum(len(trace.executions) for trace in traces)
    assert counting.batch_calls <= rounds
    assert f"repro_sched_rounds_total{label} {rounds}\n" in text
    assert f"repro_sched_models_executed_total{label} {executed}\n" in text
