"""The labeling result record and its construction from a trace.

:class:`LabelingResult` is what every labeling entry point returns per item.
It lives in the engine layer (the framework re-exports it for backwards
compatibility) because result construction is the last step of the engine's
prediction–scheduling–execution loop: read the executed models' valuable
emissions back from the ground-truth cache and keep, per label, the
highest-confidence one (Eq. 1's max-confidence union).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.output import LabelOutput
from repro.scheduling.base import ScheduleTrace
from repro.zoo.oracle import GroundTruth


@dataclass
class LabelingResult:
    """What the framework returns for one labeled item."""

    item_id: str
    #: All valuable labels obtained, with confidences.
    labels: list[LabelOutput]
    #: The underlying execution trace (models, times, marginal values).
    trace: ScheduleTrace

    @property
    def label_names(self) -> list[str]:
        return [l.name for l in self.labels]

    @property
    def models_executed(self) -> list[str]:
        return [e.model_name for e in self.trace.executions]

    @property
    def time_used(self) -> float:
        return self.trace.makespan

    @property
    def recall(self) -> float:
        return self.trace.recall


def result_from_trace(truth: GroundTruth, trace: ScheduleTrace) -> LabelingResult:
    """Collect the valuable labels revealed along a trace into a result."""
    labels: dict[int, LabelOutput] = {}
    for execution in trace.executions:
        for label in truth.valuable_labels(trace.item_id, execution.model_index):
            seen = labels.get(label.label_id)
            if seen is None or label.confidence > seen.confidence:
                labels[label.label_id] = label
    return LabelingResult(
        item_id=trace.item_id,
        labels=sorted(labels.values(), key=lambda l: -l.confidence),
        trace=trace,
    )
