"""Evaluation function f(S, d) (Eq. 1) and recall-curve utilities.

``f(S, d)`` sums the profits of the labels output by executing the model
subset ``S`` on item ``d``.  As in the paper we use the label confidence as
its profit; when several models emit the same label we count its best
confidence, which makes ``f`` non-negative, non-decreasing, and submodular
(Lemma 1) — properties the test suite verifies with hypothesis.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.zoo.oracle import GroundTruth


def evaluate_subset(
    truth: GroundTruth, item_id: str, model_indices: Iterable[int]
) -> float:
    """f(S, d): value of executing ``model_indices`` on the item.

    Order-independent (f is a set function).  Duplicates are ignored.
    """
    rec = truth.record(item_id)
    best = np.zeros(rec.n_labels, dtype=np.float64)
    for j in set(int(i) for i in model_indices):
        ids = rec.valuable_ids[j]
        if len(ids):
            np.maximum.at(best, ids, rec.valuable_confs[j])
    return float(best.sum())


def marginal_gain(
    truth: GroundTruth,
    item_id: str,
    current_best: np.ndarray,
    model_index: int,
) -> float:
    """f(S + m) - f(S) given the dense best-confidence vector of S."""
    ids, confs = truth.valuable(item_id, model_index)
    if len(ids) == 0:
        return 0.0
    return float(np.maximum(confs - current_best[ids], 0.0).sum())


class OutputAccumulator:
    """Incremental f(S, d) accounting used by oracle baselines.

    Cheaper than :class:`~repro.core.state.LabelingState` when only the
    value (not the observation vector) is needed.
    """

    def __init__(self, truth: GroundTruth, item_id: str):
        self._truth = truth
        self._item_id = item_id
        self._best = np.zeros(truth.record(item_id).n_labels, dtype=np.float64)
        self.value = 0.0
        self.executed: set[int] = set()

    def gain_of(self, model_index: int) -> float:
        """Marginal gain of adding one model (without adding it)."""
        return marginal_gain(self._truth, self._item_id, self._best, model_index)

    def add(self, model_index: int) -> float:
        """Add a model to S; returns its realized marginal gain."""
        if model_index in self.executed:
            return 0.0
        ids, confs = self._truth.valuable(self._item_id, model_index)
        gain = 0.0
        if len(ids):
            gain = float(np.maximum(confs - self._best[ids], 0.0).sum())
            np.maximum.at(self._best, ids, confs)
        self.executed.add(model_index)
        self.value += gain
        return gain


def recall_curve(
    cumulative_values: Sequence[float],
    costs: Sequence[float],
    total_value: float,
    thresholds: Sequence[float],
) -> list[float]:
    """Cost needed to reach each recall threshold along one execution trace.

    ``cumulative_values[k]`` and ``costs[k]`` describe the trace after the
    (k+1)-th model execution.  For each threshold ``t`` the returned entry
    is the smallest ``costs[k]`` with ``cumulative_values[k] >=
    t * total_value``; if the trace never reaches the threshold, the full
    trace cost is charged (the policy ran out of useful models — it pays
    for everything it executed).
    """
    if len(cumulative_values) != len(costs):
        raise ValueError("cumulative_values and costs must have equal length")
    out: list[float] = []
    full_cost = costs[-1] if len(costs) else 0.0
    for t in thresholds:
        target = t * total_value
        reached = full_cost
        for value, cost in zip(cumulative_values, costs):
            if value >= target - 1e-12:
                reached = cost
                break
        out.append(float(reached))
    return out
