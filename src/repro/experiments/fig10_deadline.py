"""Fig. 10: scheduling under deadline constraints (§VI-F, Algorithm 1).

For each dataset, sweep the per-item deadline and report the recall rate of
output value for: Algorithm 1 (Cost-Q greedy), Q-greedy, random, and the
optimal* upper bound — plus the performance ratio of Algorithm 1 to
optimal*, which the paper finds exceeds 1 - 1/e in most cases.  Headline:
Algorithm 1 boosts recall by 188.7-309.5% over random at a 0.5 s deadline.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import improvement, nearest, performance_ratio
from repro.analysis.tables import format_series
from repro.experiments.common import (
    ExperimentContext,
    ExperimentReport,
    PREDICTION_DATASETS,
)
from repro.experiments.grid import recall_curves
from repro.scheduling.deadline import (
    CostQGreedyScheduler,
    QGreedyDeadlineScheduler,
    RelaxedOptimalDeadline,
)
from repro.scheduling.random_policy import RandomStepPredictor

PAPER = {
    "improvement_at_0.5s_low": 1.887,
    "improvement_at_0.5s_high": 3.095,
    "ratio_floor": 1 - 1 / np.e,
}

#: Deadline grid (seconds); the paper sweeps 0-5 s.
DEADLINES = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)


def run(
    ctx: ExperimentContext,
    datasets: tuple[str, ...] = PREDICTION_DATASETS,
    deadlines: tuple[float, ...] = DEADLINES,
    n_items: int | None = None,
) -> ExperimentReport:
    sections = []
    measured: dict[str, float] = {}
    improvements_05 = []
    ratios = {}
    ratio_series = {}
    for dataset in datasets:
        truth = ctx.ensure_truth(dataset)
        item_ids = ctx.eval_ids(dataset, n_items)
        predictor = ctx.predictor(dataset, "dueling_dqn")
        policies = {
            "cost_q_greedy": CostQGreedyScheduler(predictor),
            "q_greedy": QGreedyDeadlineScheduler(predictor),
            "random": QGreedyDeadlineScheduler(RandomStepPredictor(seed=31)),
            "optimal_star": RelaxedOptimalDeadline(),
        }
        budgets = [(deadline,) for deadline in deadlines]
        curves = recall_curves(truth, item_ids, policies, budgets)
        sections.append(
            format_series(
                "deadline_s",
                deadlines,
                curves,
                title=f"Fig. 10 ({dataset}): value recall vs deadline",
            )
        )
        ours, star = curves["cost_q_greedy"], curves["optimal_star"]
        ratio = performance_ratio(ours, star)
        ratios[dataset] = ratio
        measured[f"{dataset}_ratio"] = ratio
        ratio_series[dataset] = [
            performance_ratio([o], [s]) for o, s in zip(ours, star)
        ]
        # improvement vs random at the deadline closest to 0.5 s
        i05 = nearest(deadlines, 0.5)
        imp = improvement(curves["random"][i05], curves["cost_q_greedy"][i05])
        improvements_05.append(imp)
        measured[f"{dataset}_improvement_at_0.5s"] = imp

    ratio_series["1-1/e"] = np.full(len(deadlines), 1 - 1 / np.e)
    sections.append(
        format_series(
            "deadline_s",
            deadlines,
            ratio_series,
            title="Fig. 10(d): performance ratio of Algorithm 1 to optimal*",
        )
    )
    measured["improvement_at_0.5s_low"] = min(improvements_05)
    measured["improvement_at_0.5s_high"] = max(improvements_05)
    measured["min_ratio"] = min(ratios.values())
    summary = (
        f"Algorithm 1 vs random @0.5s: {min(improvements_05):+.1%} to "
        f"{max(improvements_05):+.1%} recall (paper +188.7% to +309.5%); "
        f"min performance ratio {min(ratios.values()):.3f} vs 1-1/e="
        f"{1 - 1 / np.e:.3f}"
    )
    return ExperimentReport(
        experiment="fig10",
        title="Scheduling under deadline constraint (Algorithm 1)",
        text="\n\n".join(sections + [summary]),
        measured=measured,
        paper=dict(PAPER),
    )
