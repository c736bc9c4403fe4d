"""The exact per-budget oracle against exhaustive search.

:class:`ParetoPlanner` is the attainable optimum the scheduler's regret is
measured against, so its branch and bound is checked here against every
subset of the mini world's 10-model zoo (1 024 subsets per item).
"""

import numpy as np
import pytest

from repro.scheduling.base import TOLERANCE
from repro.scheduling.deadline import RelaxedOptimalDeadline
from repro.scheduling.optimal import ParetoPlanner

BUDGETS = (0.0, 0.1, 0.25, 0.5, 1.0, 10.0)


def exhaustive(truth, item_id):
    """(value, time) of every model subset, one row per subset bit mask."""
    n_models, n_labels = len(truth.zoo), len(truth.zoo.space)
    confs = np.zeros((n_models, n_labels))
    for j in range(n_models):
        ids, values = truth.valuable(item_id, j)
        np.maximum.at(confs[j], ids, values)
    masks = (np.arange(2**n_models)[:, None] >> np.arange(n_models)) & 1
    # Confidences are non-negative, so a left-out model's zero row never wins.
    value = (masks[:, :, None] * confs[None]).max(axis=1).sum(axis=1)
    return value, masks @ truth.zoo.times


@pytest.fixture(scope="module")
def cases(truth, test_item_ids):
    assert len(truth.zoo) == 10
    return [(item_id, *exhaustive(truth, item_id)) for item_id in test_item_ids[:20]]


@pytest.mark.parametrize("budget", BUDGETS)
def test_plan_matches_exhaustive_search(truth, cases, budget):
    planner, star = ParetoPlanner(), RelaxedOptimalDeadline()
    for item_id, values, times in cases:
        plan = planner.plan(truth, item_id, budget)
        best = values[times <= budget + TOLERANCE].max()
        assert plan.value == pytest.approx(best, abs=1e-9)
        # the planner's own boundary rule: a finish time may hit the budget
        assert plan.time_used <= budget + TOLERANCE
        total = truth.total_value(item_id)
        assert plan.recall(total) <= star.recall(truth, item_id, budget) + 1e-9
