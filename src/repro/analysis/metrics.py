"""Metrics used throughout the evaluation section.

The central structure is the *cost-vs-recall curve* of Figs. 4/5: for a
set of items and one policy, the average number of executed models (and
average execution time) required to reach each recall threshold of the true
output value.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.scheduling.base import ScheduleTrace

#: The recall grid the paper sweeps in Figs. 4/5 (0 to 1).
DEFAULT_RECALL_GRID: tuple[float, ...] = tuple(np.round(np.arange(0.0, 1.01, 0.1), 2))


@dataclass
class PolicyCurve:
    """Average cost to reach each recall threshold, for one policy."""

    policy: str
    thresholds: tuple[float, ...]
    avg_models: np.ndarray
    avg_time: np.ndarray

    def at(self, threshold: float) -> tuple[float, float]:
        """(avg models, avg time) at the grid point nearest ``threshold``."""
        i = nearest(self.thresholds, threshold)
        return float(self.avg_models[i]), float(self.avg_time[i])


def nearest(grid: Sequence[float], x: float) -> int:
    """Index of the grid point nearest ``x`` (the first one on a tie)."""
    return int(np.argmin(np.abs(np.asarray(grid) - x)))


def average_cost_curves(
    policy: str,
    traces: Sequence[ScheduleTrace],
    thresholds: Sequence[float] = DEFAULT_RECALL_GRID,
) -> PolicyCurve:
    """Average cost-to-recall curves over many items' traces."""
    if not traces:
        raise ValueError("need at least one trace")
    models = np.zeros((len(traces), len(thresholds)))
    times = np.zeros_like(models)
    for i, trace in enumerate(traces):
        for j, threshold in enumerate(thresholds):
            n, t = trace.cost_to_recall(threshold)
            models[i, j] = n
            times[i, j] = t
    return PolicyCurve(
        policy=policy,
        thresholds=tuple(float(t) for t in thresholds),
        avg_models=models.mean(axis=0),
        avg_time=times.mean(axis=0),
    )


def savings(baseline: float, ours: float) -> float:
    """Relative saving of ``ours`` vs ``baseline`` (0.53 = 53% saved)."""
    if baseline <= 0:
        return 0.0
    return 1.0 - ours / baseline


def improvement(baseline: float, ours: float) -> float:
    """Relative improvement of ``ours`` over ``baseline`` (1.32 = +132%)."""
    if baseline <= 0:
        return float("inf") if ours > 0 else 0.0
    return ours / baseline - 1.0


def performance_ratio(
    ours: Sequence[float], upper_bound: Sequence[float]
) -> float:
    """Mean ratio of our recalls to the optimal* upper bound (§V-C).

    Items where the upper bound is 0 are skipped (no value available means
    every policy is trivially optimal there).
    """
    ours_arr = np.asarray(ours, dtype=np.float64)
    upper = np.asarray(upper_bound, dtype=np.float64)
    if ours_arr.shape != upper.shape:
        raise ValueError("shape mismatch")
    mask = upper > 1e-12
    if not mask.any():
        return 1.0
    ratios = np.minimum(ours_arr[mask] / upper[mask], 1.0)
    return float(ratios.mean())
