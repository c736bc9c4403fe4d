"""Scheduling with the model-relationship graph.

:class:`GraphPredictor` predicts ``P(useful) * expected_value`` per model,
the posterior usefulness given which executed models were (not) useful —
the automatically-constructed counterpart of the Table II rules, and an
interpretable middle ground between rules and the DRL agent.  Like every
predictor it drives Q-greedy (``QGreedyPolicy(GraphPredictor(...))``) and
Algorithms 1 and 2.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import LabelingState
from repro.graph.relationship import ModelRelationshipGraph
from repro.scheduling.qgreedy import QValuePredictor
from repro.zoo.oracle import GroundTruth


class GraphPredictor(QValuePredictor):
    """Graph-based value predictions for Q-greedy and the budgeted schedulers.

    Predicted value of model ``m`` = posterior usefulness x the model's
    average valuable-output value over the training corpus.  No neural
    network involved — a fully interpretable scheduling driver.
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
        # counts as useful when it output any valuable label.
        useful: list[int] = []
        useless: list[int] = []
        for j in np.nonzero(state.executed)[0]:
            ids, _ = state.truth.valuable(state.item_id, int(j))
            if len(ids) > 0:
                useful.append(int(j))
            else:
                useless.append(int(j))
        posterior = self.graph.expected_usefulness(useful, useless)
        return posterior * self.mean_useful_value
