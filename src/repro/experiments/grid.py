"""One evaluator for the paper's figures.

A figure hands :func:`evaluate` its items, its policies and a grid of
budgets.  The evaluator loops budget, then policy, then item, and runs
each (budget, policy, item) exactly once: a scheduler's ``schedule``
returns a trace, an optimal* bound's ``recall`` a number.  That order is
the draw order of the seeded random baselines, so a figure that reuses
one baseline instance over several calls (Figs. 8, 11 and 12) draws from
one stream across them, item after item.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.analysis.cdf import empirical_cdf
from repro.analysis.metrics import PolicyCurve, average_cost_curves
from repro.analysis.tables import format_series
from repro.scheduling.base import ScheduleTrace
from repro.zoo.oracle import GroundTruth

#: A budget is ``()``, ``(deadline,)`` or ``(deadline, memory_budget)``.
Budget = tuple[float, ...]


def evaluate(
    truth: GroundTruth,
    item_ids: Sequence[str],
    policies: Mapping[str, object],
    budgets: Sequence[Budget] = ((),),
) -> dict[str, list[list]]:
    """``out[name][k][i]``: policy ``name`` on ``item_ids[i]`` under
    ``budgets[k]``."""
    out: dict[str, list[list]] = {name: [] for name in policies}
    for budget in budgets:
        for name, policy in policies.items():
            run = policy.recall if hasattr(policy, "recall") else policy.schedule
            out[name].append([run(truth, item_id, *budget) for item_id in item_ids])
    return out


def traces(
    truth: GroundTruth, item_ids: Sequence[str], policies: Mapping[str, object]
) -> dict[str, list[ScheduleTrace]]:
    """Each policy's unconstrained trace of every item."""
    return {name: runs[0] for name, runs in evaluate(truth, item_ids, policies).items()}


def cost_curves(
    truth: GroundTruth, item_ids: Sequence[str], policies: Mapping[str, object]
) -> dict[str, PolicyCurve]:
    """Figs. 4-6: each policy's average cost to reach each recall threshold."""
    return {
        name: average_cost_curves(name, runs)
        for name, runs in traces(truth, item_ids, policies).items()
    }


def recall_curves(
    truth: GroundTruth,
    item_ids: Sequence[str],
    policies: Mapping[str, object],
    budgets: Sequence[Budget],
) -> dict[str, np.ndarray]:
    """Figs. 10-12: each policy's mean value recall by the deadline
    (``budget[0]``) at every budget."""
    return {
        name: np.array(
            [
                float(np.mean([_recall_by(run, budget[0]) for run in row]))
                for budget, row in zip(budgets, rows)
            ]
        )
        for name, rows in evaluate(truth, item_ids, policies, budgets).items()
    }


def _recall_by(run: ScheduleTrace | float, deadline: float) -> float:
    return run if isinstance(run, float) else run.recall_by(deadline)


def recall_times(runs: Sequence[ScheduleTrace], threshold: float = 1.0) -> list[float]:
    """Per-item time until ``threshold`` of the item's value is recalled."""
    return [trace.cost_to_recall(threshold)[1] for trace in runs]


def cdf_table(
    title: str, costs: Mapping[str, Sequence[float]], total_time: float
) -> str:
    """Figs. 2 and 8: CDFs of per-item time costs on a 0.5 s grid."""
    grid = np.round(np.arange(0.0, total_time + 0.26, 0.5), 2)
    cdfs = {name: empirical_cdf(cost, grid)[1] for name, cost in costs.items()}
    return format_series("time_s", grid, cdfs, title=title)
