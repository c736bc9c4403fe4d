"""Oracle baselines that read ground truth (upper bounds).

* :class:`SoloValuePredictor` — the paper's "optimal policy" as a
  predictor on the Q-greedy episode: execute models in descending order of
  their true output value (§VI-B).  It knows each model's value but still
  pays for every execution it makes.
* :func:`relaxed_optimal_value` — the one optimal* walk of §V-C, greedy
  on true *marginal* gain per unit cost (:func:`marginal_gains`).
* :class:`ParetoPlanner` — the offline *exact* per-budget optimum: the
  best model subset fitting a time budget under the max-confidence union
  value of Eq. (1), found by branch and bound.  Unlike the relaxed
  optimal* bound it is attainable, so the RL scheduler's gap to it is a
  true regret; sweeping budgets traces the exact cost/recall Pareto
  frontier (``bench_pareto_planner.py`` reports the gap per budget).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluation import marginal_gain
from repro.core.state import LabelingState
from repro.scheduling.base import TOLERANCE
from repro.scheduling.qgreedy import QValuePredictor
from repro.zoo.oracle import GroundTruth


class SoloValuePredictor(QValuePredictor):
    """Each model's true solo value on the item (the optimal baseline).

    The row is constant per item, so Q-greedy's first-index argmax over
    the unexecuted models executes them in descending solo value, ties by
    index: the stable ``argsort(-solo)`` order.
    """

    def predict(self, state: LabelingState) -> np.ndarray:
        return state.truth.solo_values(state.item_id)


def marginal_gains(
    truth: GroundTruth, item_id: str, state: LabelingState
) -> tuple[np.ndarray, np.ndarray]:
    """``(remaining model indices, true marginal gain of each)`` at ``state``."""
    remaining = state.remaining
    gains = np.asarray(
        [marginal_gain(truth, item_id, state.confidences, int(j)) for j in remaining]
    )
    return remaining, gains


def relaxed_optimal_value(
    truth: GroundTruth, item_id: str, costs: np.ndarray, budget: float
) -> float:
    """The optimal* walk of §V-C over one per-model cost vector.

    Greedy on true marginal gain per unit cost; the first model the
    remaining budget cannot fit still contributes the affordable
    *proportion* of its gain (the relaxation), which ends the walk.
    """
    state = LabelingState(truth, item_id)
    value = 0.0
    while budget > 0 and not state.all_executed:
        remaining, gains = marginal_gains(truth, item_id, state)
        pick = int(np.argmax(gains / costs[remaining]))
        gain = float(gains[pick])
        if gain <= 0:
            break
        cost = float(costs[remaining[pick]])
        if cost <= budget + 1e-9:
            state.execute(int(remaining[pick]))
            value += gain
            budget -= cost
        else:
            value += gain * (budget / cost)
            budget = 0.0
    return value


@dataclass(frozen=True)
class PlanResult:
    """One exact plan: the optimal subset for one item at one budget."""

    item_id: str
    time_budget: float
    #: Optimal achievable value within the budget (max-confidence union).
    value: float
    #: Zoo indices of the optimal subset, in the search's density order.
    model_indices: tuple[int, ...]
    #: Total model time the subset consumes.
    time_used: float
    #: Branch-and-bound nodes expanded to prove optimality.
    nodes: int

    def recall(self, total_value: float) -> float:
        if total_value <= 0:
            return 1.0
        return self.value / total_value


class ParetoPlanner:
    """Exact offline optimum under a time budget, by branch and bound.

    Chooses the model subset ``S`` maximizing the union value
    ``f(S) = sum_l max_{m in S} conf_m(l)`` subject to
    ``sum_{m in S} time(m) <= budget`` — the integral problem whose
    *fractional* relaxation is §V-C's optimal*.  Models are explored in
    descending solo-value-per-second order; at every node the admissible
    bound is the fractional knapsack over the remaining models' current
    marginal gains, which upper-bounds any completion because ``f`` is
    submodular (a later gain never exceeds the current one).  Exact for
    the paper-scale zoo (30 models) in milliseconds per item; the
    planner is offline tooling — it reads ground truth and is never a
    scheduling policy.
    """

    name = "pareto_planner"

    def plan(
        self, truth: GroundTruth, item_id: str, time_budget: float
    ) -> PlanResult:
        """The provably optimal subset for one item at one budget."""
        if time_budget < 0:
            raise ValueError("time_budget must be non-negative")
        zoo = truth.zoo
        n_labels = len(zoo.space)
        times_all = zoo.times
        solo = truth.solo_values(item_id)
        # Candidates: affordable models that emit at least one valuable
        # label.  Density order makes the greedy incumbent near-optimal
        # immediately, which is what makes the bound prune hard.
        candidates = np.nonzero(
            (solo > 0.0) & (times_all <= time_budget + TOLERANCE)
        )[0]
        order = candidates[np.argsort(-(solo[candidates] / times_all[candidates]))]
        matrix = np.zeros((len(order), n_labels), dtype=np.float64)
        for row, index in enumerate(order):
            ids, confs = truth.valuable(item_id, int(index))
            if len(ids):
                np.maximum.at(matrix[row], ids, confs)
        times = times_all[order]

        best_value = 0.0
        best_chosen: tuple[int, ...] = ()
        nodes = 0

        def upper_bound(k: int, conf: np.ndarray, budget: float) -> float:
            """Fractional knapsack over remaining current marginal gains."""
            gains = np.maximum(matrix[k:] - conf, 0.0).sum(axis=1)
            if not len(gains):
                return 0.0
            density_order = np.argsort(-(gains / times[k:]))
            total = 0.0
            left = budget
            for j in density_order:
                gain = float(gains[j])
                if gain <= 0.0 or left <= 0.0:
                    break
                cost = float(times[k + j])
                if cost <= left:
                    total += gain
                    left -= cost
                else:
                    total += gain * (left / cost)
                    break
            return total

        def dfs(
            k: int, conf: np.ndarray, value: float, budget: float, chosen: list[int]
        ) -> None:
            nonlocal best_value, best_chosen, nodes
            nodes += 1
            if value > best_value + 1e-12:
                best_value = value
                best_chosen = tuple(chosen)
            if k == len(order) or budget <= TOLERANCE:
                return
            if value + upper_bound(k, conf, budget) <= best_value + 1e-12:
                return
            if times[k] <= budget + TOLERANCE:
                merged = np.maximum(conf, matrix[k])
                chosen.append(k)
                dfs(
                    k + 1,
                    merged,
                    value + float((merged - conf).sum()),
                    budget - float(times[k]),
                    chosen,
                )
                chosen.pop()
            dfs(k + 1, conf, value, budget, chosen)

        dfs(0, np.zeros(n_labels), 0.0, float(time_budget), [])
        return PlanResult(
            item_id=item_id,
            time_budget=float(time_budget),
            value=best_value,
            model_indices=tuple(int(order[k]) for k in best_chosen),
            time_used=float(times_all[[int(order[k]) for k in best_chosen]].sum()),
            nodes=nodes,
        )
