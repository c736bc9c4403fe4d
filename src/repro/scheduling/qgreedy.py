"""Q-value greedy policy, its episode, and the predictor abstraction.

The *Q-value greedy policy* (§VI-B) executes, at every step, the remaining
model with the maximal predicted Q value given the current labeling state.
It is cost-oblivious; Algorithm 1 adds cost-awareness on top of the same
predictions.  Its episode, :func:`qgreedy_episode`, is also what every
serial baseline runs: the baselines are predictors (random order, solo
values, the Table II rules), and Fig. 10's cost-oblivious deadline
baselines are the same episode stopped by a clock.

:func:`qgreedy_episode` is also the training MDP of §IV-B:
:func:`repro.rl.training.train_agent` plays it with the agent's actions,
adding END and the Eq. (3) reward.

:class:`QValuePredictor` is the thin interface the scheduling layer sees:
"given the labeling state, predict a value per model".  The default
implementation wraps a trained Q agent (dropping its END head); tests also
use an oracle predictor to isolate scheduler behaviour from agent quality.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.state import LabelingState
from repro.scheduling.base import (
    Episode,
    ScheduleTrace,
    execute_serially,
    run_episode,
    run_lockstep,
)
from repro.zoo.oracle import GroundTruth

if TYPE_CHECKING:
    from repro.rl.agents import QAgent


class QValuePredictor:
    """Predicts per-model values from the labeling state."""

    #: Predictions read the state only through ``vector`` (and the item).
    observation_only = True

    def predict(self, state: LabelingState) -> np.ndarray:
        """Return one value per zoo model (higher = more promising)."""
        raise NotImplementedError

    def predict_batch(self, states: Sequence[LabelingState]) -> np.ndarray:
        """Values for many states at once, shape ``(len(states), n_models)``.

        Default implementation loops over :meth:`predict`; predictors with a
        vectorizable substrate (the Q network) override it with one stacked
        forward pass.
        """
        return np.stack([self.predict(state) for state in states])


class AgentPredictor(QValuePredictor):
    """Wraps a trained Q agent; model actions only (END is training-only)."""

    def __init__(self, agent: "QAgent", n_models: int):
        if agent.n_actions < n_models:
            raise ValueError(
                f"agent has {agent.n_actions} actions but zoo has {n_models} models"
            )
        self.agent = agent
        self.n_models = n_models

    def predict(self, state: LabelingState) -> np.ndarray:
        return self.agent.q_values(state.vector)[: self.n_models]

    def predict_batch(self, states: Sequence[LabelingState]) -> np.ndarray:
        q = self.agent.q_values(np.stack([state.vector for state in states]))
        return q[:, : self.n_models]


class OraclePredictor(QValuePredictor):
    """Cheating predictor returning true marginal gains (tests/upper bounds).

    Gains are computed against a cached per-item dense matrix ``V`` of
    shape ``(n_models, n_labels)`` holding each model's valuable
    confidences (zero elsewhere): the gain of model ``j`` given the
    current best-confidence vector ``c`` is ``max(V[j] - c, 0).sum()`` —
    exactly :func:`~repro.core.evaluation.marginal_gain`, but one numpy
    expression over all models instead of a Python loop per model, and
    the same expression batches over many states in
    :meth:`predict_batch`.  The matrix cache is a bounded LRU (eviction
    by least-recent *access*, not insertion) so oracle runs over long
    streams stay in bounded memory while hot items survive; a per-item
    build guard ensures two threads missing the same item build its
    matrix exactly once.  Scheduling is otherwise read-only; this cache
    is the one write path, which is what keeps a shared oracle safe
    across the serving tier's worker threads.
    """

    #: Per-item dense matrices kept before evicting the least recently used.
    CACHE_ITEMS = 512
    observation_only = False  # gains read ``confidences``

    def __init__(self, truth: GroundTruth, item_id: str | None = None):
        self.truth = truth
        self.item_id = item_id
        self._gain_matrices: OrderedDict[str, np.ndarray] = OrderedDict()
        self._cache_lock = threading.Lock()
        #: item_id -> lock held while that item's matrix is being built,
        #: so concurrent misses on one item serialize instead of both
        #: paying for (and racing to insert) the same dense matrix.
        self._building: dict[str, threading.Lock] = {}

    def _lookup(self, item_id: str) -> np.ndarray | None:
        """Cache hit under the lock, refreshing LRU recency."""
        matrix = self._gain_matrices.get(item_id)
        if matrix is not None:
            self._gain_matrices.move_to_end(item_id)
        return matrix

    def _gain_matrix(self, item_id: str) -> np.ndarray:
        with self._cache_lock:
            matrix = self._lookup(item_id)
            if matrix is not None:
                return matrix
            guard = self._building.setdefault(item_id, threading.Lock())
        with guard:
            with self._cache_lock:
                # Double-check: the builder that held the guard before us
                # (or a racer that finished between our two lock takes)
                # already inserted the matrix.
                matrix = self._lookup(item_id)
                if matrix is not None:
                    return matrix
            zoo = self.truth.zoo
            matrix = np.zeros((len(zoo), len(zoo.space)), dtype=np.float64)
            for index in range(len(zoo)):
                ids, confs = self.truth.valuable(item_id, index)
                if len(ids):
                    np.maximum.at(matrix[index], ids, confs)
            with self._cache_lock:
                while len(self._gain_matrices) >= self.CACHE_ITEMS:
                    self._gain_matrices.popitem(last=False)
                self._gain_matrices[item_id] = matrix
                self._building.pop(item_id, None)
        return matrix

    def predict(self, state: LabelingState) -> np.ndarray:
        item_id = self.item_id or state.item_id
        matrix = self._gain_matrix(item_id)
        # Entries where V is zero contribute max(0 - c, 0) = 0, so no
        # valuable-label mask is needed (confidences are non-negative).
        return np.maximum(matrix - state.confidences, 0.0).sum(axis=1)

    def predict_batch(self, states: Sequence[LabelingState]) -> np.ndarray:
        stacked = np.stack(
            [self._gain_matrix(self.item_id or s.item_id) for s in states]
        )
        confs = np.stack([s.confidences for s in states])
        return np.maximum(stacked - confs[:, None, :], 0.0).sum(axis=2)


def qgreedy_episode(
    truth: GroundTruth,
    item_id: str,
    max_models: int | None = None,
    deadline: float = math.inf,
) -> Episode:
    """One item's rollout: execute picks among the unexecuted models until
    all have run, ``max_models`` is hit or the clock reaches ``deadline``.

    The deadline is cost-oblivious on purpose (Fig. 10's Q-greedy and
    random baselines): a model starts whenever the clock is before it, so
    the last one may finish past it and add nothing by it.  The Q row sent
    with each pick is not read, so training sends ``None``."""
    state = LabelingState(truth, item_id)
    trace = ScheduleTrace(item_id=item_id, total_value=truth.total_value(item_id))
    clock = 0.0
    # Every step runs one more model, so the zoo itself bounds the steps.
    steps = len(truth.zoo)
    for _ in range(steps if max_models is None else min(max_models, steps)):
        if clock >= deadline:
            break
        index, _ = yield state, ~state.executed
        clock = execute_serially(state, trace, truth, index, clock)
    return trace


class QGreedyPolicy:
    """Greedy on predicted Q values, ignoring costs (§VI-B)."""

    name = "q_greedy"

    def __init__(self, predictor: QValuePredictor):
        self.predictor = predictor

    def schedule(
        self, truth: GroundTruth, item_id: str, max_models: int | None = None
    ) -> ScheduleTrace:
        """The serial reference: :func:`qgreedy_episode` under ``run_episode``."""
        episode = qgreedy_episode(truth, item_id, max_models)
        return run_episode(episode, self.predictor, 1.0)

    def schedule_batch(
        self,
        truth: GroundTruth,
        item_ids: Sequence[str],
        max_models: int | None = None,
    ) -> list[ScheduleTrace]:
        """Lock-step rollout of many items, one stacked prediction per
        round; per-item traces are those of :meth:`schedule` (modulo the
        stacked-forward ULP caveat in :mod:`repro.engine.backends`)."""
        episodes = [qgreedy_episode(truth, item_id, max_models) for item_id in item_ids]
        return run_lockstep(episodes, self.predictor, 1.0, "qgreedy")
