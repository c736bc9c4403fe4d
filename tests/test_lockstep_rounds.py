"""The lock-step driver predicts only for items that can still start a model.

An episode asks for Q values only once it holds a non-empty mask, under
either driver — so on one job the rows ``BatchedBackend`` carries through
``predict_batch`` equal the ``predict`` calls ``SerialBackend`` makes, and
the ``repro_sched_*`` series read what actually happened: one round per
stacked forward, one executed model per trace entry.
"""

from __future__ import annotations

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

    def predict(self, state):
        self.calls += 1
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
    BatchedBackend().run(job, counting)
    assert counting.calls == serial_predicts  # the batched path stacks
    assert counting.rows == serial_predicts


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.regime)
def test_series_count_forwards_and_trace_entries(truth, test_item_ids, counting, spec):
    registry = MetricsRegistry()
    install(registry)
    try:
        job = LabelingJob(truth=truth, item_ids=tuple(test_item_ids[:24]), spec=spec)
        traces = BatchedBackend().run(job, counting)
    finally:
        uninstall()
    text = registry.render_prometheus()
    label = f'{{regime="{spec.regime}"}}'
    executed = sum(len(trace.executions) for trace in traces)
    assert f"repro_sched_rounds_total{label} {counting.batch_calls}\n" in text
    assert f"repro_sched_models_executed_total{label} {executed}\n" in text
