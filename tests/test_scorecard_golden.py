"""The smoke scorecard, byte for byte, and its agent-driven traces judged.

One fresh ``ExperimentContext("smoke")`` runs every experiment of
``runner.EXPERIMENTS`` in registry order, as ``runner --all --scale
smoke`` does.  The digest is sha256 over each report's text and its
``repr(sorted(measured.items()))``, minus the one wall-clock quantity:
Table III's ``DRL agent selection`` row and its ``selection_ms``.  A
refactor of how the figures are evaluated must leave it unchanged.

In the same run the ``schedule`` methods of Algorithm 1, Algorithm 2 and
the unconstrained Q-greedy policy over a trained agent are wrapped, and
every trace they return is replayed by ``trace_oracle.check_trace``
afterwards.  The seeded random baselines cannot be replayed after the
fact (their draws depend on the items before), so they are pinned by the
digest alone.

Regenerate the digest only after a deliberate change to what a figure
measures or prints, by printing ``scorecard["digest"]`` from the test.
"""

from __future__ import annotations

import hashlib
import inspect

import pytest
from trace_oracle import check_trace

from repro.experiments.common import ExperimentContext
from repro.experiments.runner import EXPERIMENTS
from repro.scheduling.deadline import CostQGreedyScheduler
from repro.scheduling.deadline_memory import MemoryDeadlineScheduler
from repro.scheduling.qgreedy import AgentPredictor, QGreedyPolicy
from repro.spec import LabelingSpec

SCORECARD_SHA256 = "79e5393009c4dc7cae19a5923ccb0ab8653d95a5e9c0b007380b4db015e87dd3"

#: Agent-driven traces the smoke scorecard schedules, per regime.
TRACE_COUNTS = {"deadline": 2080, "deadline_memory": 720, "qgreedy": 1000}


def _spec_of(scheduler, call):
    """The LabelingSpec of a wrapped ``schedule`` call, or None to skip it."""
    if isinstance(scheduler, CostQGreedyScheduler):
        return LabelingSpec(deadline=call["time_budget"])
    if isinstance(scheduler, MemoryDeadlineScheduler):
        return LabelingSpec(
            deadline=call["time_budget"], memory_budget=call["memory_budget"]
        )
    if isinstance(scheduler.predictor, AgentPredictor):
        if call.get("max_models") is None:
            return LabelingSpec()
    return None


@pytest.fixture(scope="module")
def scorecard():
    captured = []

    def wrap(cls):
        inner = cls.schedule
        signature = inspect.signature(inner)

        def schedule(self, *args, **kwargs):
            trace = inner(self, *args, **kwargs)
            call = signature.bind(self, *args, **kwargs).arguments
            spec = _spec_of(self, call)
            if spec is not None:
                captured.append((call["truth"], self.predictor, spec, trace))
            return trace

        return schedule

    ctx = ExperimentContext("smoke")
    h = hashlib.sha256()
    with pytest.MonkeyPatch.context() as mp:
        for cls in (CostQGreedyScheduler, MemoryDeadlineScheduler, QGreedyPolicy):
            mp.setattr(cls, "schedule", wrap(cls))
        for module in EXPERIMENTS.values():
            report = module.run(ctx)
            text = "\n".join(
                line
                for line in str(report).splitlines()
                if "DRL agent selection" not in line
            )
            measured = {
                k: v for k, v in report.measured.items() if k != "selection_ms"
            }
            h.update(text.encode("utf-8") + b"\0")
            h.update(repr(sorted(measured.items())).encode("utf-8") + b"\0")
    return {"digest": h.hexdigest(), "traces": captured}


def test_smoke_scorecard_is_unchanged(scorecard):
    assert scorecard["digest"] == SCORECARD_SHA256


def test_agent_driven_traces_obey_the_rule(scorecard):
    counts = dict.fromkeys(TRACE_COUNTS, 0)
    for truth, predictor, spec, trace in scorecard["traces"]:
        check_trace(truth, predictor, spec, trace)
        counts[spec.regime] += 1
    assert counts == TRACE_COUNTS
