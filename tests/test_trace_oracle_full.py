"""The trace oracle on the full 30-model, 1104-label world.

``test_trace_oracle.py`` judges traces on the session mini world; this
file applies the same :func:`trace_oracle.check_trace` where the label
space is twenty times wider and Algorithm 2's waves pack many more
models, so a selection shortcut that only holds on a small zoo fails
here.  The agent is untrained: its Q values still move with the state,
which is all the rule needs, and it costs no training.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_oracle import check_trace

from repro import GroundTruth, WorldConfig, build_label_space, build_zoo
from repro.data.datasets import generate_dataset
from repro.engine import BatchedBackend, LabelingJob, SerialBackend
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor, OraclePredictor
from repro.spec import LabelingSpec

# The full zoo's thirty models total ~5.2 s and 79 GB, 0.5 to 8 GB each.
deadlines = st.one_of(
    st.sampled_from([0.05, 0.35, 0.5, 1.0, 5.0]),
    st.floats(0.05, 5.0, allow_nan=False),
)
memories = st.one_of(
    st.sampled_from([500.0, 2048.0, 8000.0, 16000.0]),
    st.floats(500.0, 16000.0, allow_nan=False),
)
SPECS = {
    "qgreedy": st.builds(
        LabelingSpec, max_models=st.one_of(st.none(), st.integers(1, 32))
    ),
    "deadline": st.builds(LabelingSpec, deadline=deadlines),
    "deadline_memory": st.builds(
        LabelingSpec, deadline=deadlines, memory_budget=memories
    ),
}


@pytest.fixture(scope="module")
def full_truth() -> GroundTruth:
    config = WorldConfig(vocab_scale="full")
    space = build_label_space("full")
    items = generate_dataset(space, config, "mscoco2017", 16)
    return GroundTruth(build_zoo(config, space), items, config)


@pytest.fixture(scope="module", params=["agent", "oracle"])
def predictor(request, full_truth):
    zoo = full_truth.zoo
    if request.param == "agent":
        agent = make_agent("dueling_dqn", len(zoo.space), len(zoo) + 1, hidden_size=64)
        return AgentPredictor(agent, len(zoo))
    return OraclePredictor(full_truth)


@pytest.mark.parametrize(
    "backend", [SerialBackend(), BatchedBackend()], ids=lambda b: b.name
)
@pytest.mark.parametrize("regime", list(SPECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_traces_obey_the_rule(full_truth, predictor, backend, regime, data):
    spec = data.draw(SPECS[regime])
    assert spec.regime == regime
    items = data.draw(
        st.lists(
            st.sampled_from(list(full_truth.item_ids)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    job = LabelingJob(truth=full_truth, item_ids=tuple(items), spec=spec)
    traces = backend.run(job, predictor)
    assert [trace.item_id for trace in traces] == items
    for trace in traces:
        check_trace(full_truth, predictor, spec, trace)
