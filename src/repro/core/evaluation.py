"""Evaluation function f(S, d) (Eq. 1) and its marginal-gain kernel.

``f(S, d)`` sums the profits of the labels output by executing the model
subset ``S`` on item ``d``.  As in the paper we use the label confidence as
its profit; when several models emit the same label we count its best
confidence, which makes ``f`` non-negative, non-decreasing, and submodular
(Lemma 1) — properties the test suite verifies with hypothesis.
"""

from __future__ import annotations

from collections.abc import Iterable

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
        ids, confs = rec.valuable_pairs[j]
        if len(ids):
            np.maximum.at(best, ids, confs)
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
