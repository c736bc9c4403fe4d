"""Every backend's traces obey the paper's rule, checked generatively.

``trace_oracle.check_trace`` states each regime's selection rule without
the scheduling package; here it judges traces produced for generated
specs of all three regimes by both in-process backends and both
predictors on the session mini world.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_oracle import check_trace

from repro.engine import BatchedBackend, LabelingJob, SerialBackend
from repro.scheduling.qgreedy import AgentPredictor, OraclePredictor
from repro.spec import LabelingSpec

# The mini zoo's ten models total ~1.0 s and 26 GB, the largest 8 GB.
deadlines = st.one_of(
    st.sampled_from([0.0, 0.05, 0.2, 0.35, 0.5, 2.0]),
    st.floats(0.0, 1.5, allow_nan=False),
)
memories = st.one_of(
    st.sampled_from([500.0, 2048.0, 4000.0, 8000.0, 12000.0]),
    st.floats(0.0, 30000.0, allow_nan=False),
)
SPECS = {
    "qgreedy": st.builds(
        LabelingSpec, max_models=st.one_of(st.none(), st.integers(1, 12))
    ),
    "deadline": st.builds(LabelingSpec, deadline=deadlines),
    "deadline_memory": st.builds(
        LabelingSpec, deadline=deadlines, memory_budget=memories
    ),
}


@pytest.fixture(scope="module", params=["agent", "oracle"])
def predictor(request, trained, zoo, truth):
    if request.param == "agent":
        return AgentPredictor(trained.agent, len(zoo))
    return OraclePredictor(truth)


@pytest.mark.parametrize(
    "backend", [SerialBackend(), BatchedBackend()], ids=lambda b: b.name
)
@pytest.mark.parametrize("regime", list(SPECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_traces_obey_the_rule(truth, test_item_ids, predictor, backend, regime, data):
    spec = data.draw(SPECS[regime])
    assert spec.regime == regime
    items = data.draw(
        st.lists(st.sampled_from(test_item_ids), min_size=1, max_size=6, unique=True)
    )
    job = LabelingJob(truth=truth, item_ids=tuple(items), spec=spec)
    traces = backend.run(job, predictor)
    assert [trace.item_id for trace in traces] == items
    for trace in traces:
        check_trace(truth, predictor, spec, trace)
