"""Scheduling with the model-relationship graph.

:class:`GraphPolicy` is an ordering policy that ranks unexecuted models by
their posterior usefulness given which executed models were (not) useful —
the automatically-constructed counterpart of the Table II rule policy, and
an interpretable middle ground between rules and the DRL agent.

It also plugs into Algorithm 1/2 as a :class:`QValuePredictor`
(:class:`GraphPredictor`), predicting ``P(useful) * expected_value`` per
model.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import LabelingState
from repro.graph.relationship import ModelRelationshipGraph
from repro.scheduling.base import OrderingPolicy
from repro.scheduling.qgreedy import QValuePredictor
from repro.zoo.oracle import GroundTruth


class _GraphEvidence:
    """Tracks which executed models were useful on the current item."""

    def __init__(self) -> None:
        self.useful: list[int] = []
        self.useless: list[int] = []

    def observe(self, state: LabelingState, model_index: int, gained: float) -> None:
        if gained > 0:
            self.useful.append(model_index)
        else:
            self.useless.append(model_index)


class GraphPolicy(OrderingPolicy):
    """Greedy on posterior usefulness from the relationship graph."""

    name = "graph"

    def __init__(self, graph: ModelRelationshipGraph):
        self.graph = graph
        self._evidence = _GraphEvidence()
        self._last_value = 0.0

    def reset(self, truth: GroundTruth, item_id: str) -> None:
        self._evidence = _GraphEvidence()
        self._last_value = 0.0

    def next_model(self, state: LabelingState) -> int:
        posterior = self.graph.expected_usefulness(
            self._evidence.useful, self._evidence.useless
        )
        remaining = state.remaining
        return int(remaining[np.argmax(posterior[remaining])])

    def observe(self, state: LabelingState, model_index: int) -> None:
        gained = state.value - self._last_value
        self._evidence.observe(state, model_index, gained)
        self._last_value = state.value


class GraphPredictor(QValuePredictor):
    """Graph-based value predictions for the budgeted schedulers.

    Predicted value of model ``m`` = posterior usefulness x the model's
    average valuable-output value over the training corpus.  No neural
    network involved — a fully interpretable Algorithm 1/2 driver.
    """

    observation_only = False  # evidence reads ``executed``

    def __init__(
        self,
        graph: ModelRelationshipGraph,
        truth: GroundTruth,
        train_item_ids=None,
    ):
        self.graph = graph
        ids = list(train_item_ids if train_item_ids is not None else truth.item_ids)
        n = len(truth.zoo)
        sums = np.zeros(n)
        counts = np.zeros(n)
        for item_id in ids:
            solo = truth.solo_values(item_id)
            useful = solo > 0
            sums[useful] += solo[useful]
            counts[useful] += 1
        with np.errstate(invalid="ignore"):
            self.mean_useful_value = np.where(counts > 0, sums / counts, 0.0)

    def predict(self, state: LabelingState) -> np.ndarray:
        # Evidence comes only from *executed* models, whose outputs are
        # revealed (replayed from the record, as everywhere else): a model
        # counts as useful when its valuable labels are in the state.
        useful: list[int] = []
        useless: list[int] = []
        for j in np.nonzero(state.executed)[0]:
            ids, _ = state.truth.valuable(state.item_id, int(j))
            if len(ids) and (state.vector[ids] > 0).all():
                useful.append(int(j))
            else:
                useless.append(int(j))
        posterior = self.graph.expected_usefulness(useful, useless)
        return posterior * self.mean_useful_value
