"""Random baselines as predictors (§II, §VI-B, Fig. 10).

Both run on :func:`~repro.scheduling.qgreedy.qgreedy_episode`: the
episode's first-index argmax over the unexecuted models turns their scores
into the random pick.  Each draws from one seeded stream shared by the
items it schedules, so an item's draws depend on the items before it, and
the order of draws is that of one ``predict`` per step: they match the
former ordering-policy loops only under ``run_episode``.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import LabelingState
from repro.scheduling.qgreedy import QValuePredictor


class RandomOrderPredictor(QValuePredictor):
    """Uniformly random model order, drawn once per item.

    On the first ``predict`` for a new state it draws a permutation of the
    zoo; the scores are ranks, the earliest model scoring highest, so
    Q-greedy executes the permutation in order.
    """

    observation_only = False  # the scores are a draw, not a function of vector

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self._state: LabelingState | None = None
        self._scores = np.empty(0)

    def predict(self, state: LabelingState) -> np.ndarray:
        if state is not self._state:
            self._state = state
            n = len(state.executed)
            self._scores = np.empty(n)
            self._scores[self._rng.permutation(n)] = np.arange(n, 0, -1)
        return self._scores


class RandomStepPredictor(QValuePredictor):
    """One uniformly random unexecuted model per step, as a one-hot row.

    Under :class:`~repro.scheduling.deadline.QGreedyDeadlineScheduler` this
    is the paper's Fig. 10 random baseline: it keeps drawing while the
    clock is before the deadline, so its last pick typically overshoots.
    """

    observation_only = False  # every call draws

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def predict(self, state: LabelingState) -> np.ndarray:
        remaining = state.remaining
        row = np.zeros(len(state.executed))
        row[remaining[self._rng.integers(len(remaining))]] = 1.0
        return row
