"""The paper's headline claims (§I): 53.1% time saved at 100% recall,
~70.0% at 80% recall, and +132-310% value under a 0.5 s budget.

This experiment aggregates the Fig. 5 and Fig. 10 machinery over the three
prediction datasets to produce those three numbers.  Note the paper's
70.0%/53.1% compare the DRL agent to *no policy* (executing everything);
the Fig. 4/5 percentages compare to the random policy.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import improvement, savings
from repro.analysis.tables import format_table
from repro.experiments.common import (
    ExperimentContext,
    ExperimentReport,
    PREDICTION_DATASETS,
)
from repro.experiments.grid import recall_curves, recall_times, traces
from repro.scheduling.deadline import CostQGreedyScheduler, QGreedyDeadlineScheduler
from repro.scheduling.qgreedy import QGreedyPolicy
from repro.scheduling.random_policy import RandomStepPredictor

PAPER = {
    "time_saved_at_1.0": 0.531,
    "time_saved_at_0.8": 0.700,
    "improvement_at_0.5s_low": 1.32,
    "improvement_at_0.5s_high": 3.10,
}


def run(ctx: ExperimentContext, n_items: int | None = None) -> ExperimentReport:
    no_policy_time = ctx.zoo.total_time
    times_08 = []
    times_10 = []
    improvements = []
    for dataset in PREDICTION_DATASETS:
        truth = ctx.ensure_truth(dataset)
        item_ids = ctx.eval_ids(dataset, n_items)
        predictor = ctx.predictor(dataset, "dueling_dqn")
        runs = traces(truth, item_ids, {"agent": QGreedyPolicy(predictor)})
        times_08 += recall_times(runs["agent"], 0.8)
        times_10 += recall_times(runs["agent"], 1.0)
        # value improvement vs random at 0.5 s
        policies = {
            "ours": CostQGreedyScheduler(predictor),
            "random": QGreedyDeadlineScheduler(RandomStepPredictor(seed=59)),
        }
        curves = recall_curves(truth, item_ids, policies, [(0.5,)])
        improvements.append(
            improvement(float(curves["random"][0]), float(curves["ours"][0]))
        )

    saved_10 = savings(no_policy_time, float(np.mean(times_10)))
    saved_08 = savings(no_policy_time, float(np.mean(times_08)))
    rows = [
        ("time saved @100% recall (vs no policy)", "53.1%", f"{saved_10:.1%}"),
        ("time saved @80% recall (vs no policy)", "~70.0%", f"{saved_08:.1%}"),
        (
            "value vs random @0.5s budget",
            "+132% to +310%",
            f"{min(improvements):+.0%} to {max(improvements):+.0%}",
        ),
    ]
    table = format_table(
        ("headline claim", "paper", "measured"),
        rows,
        title="Section I headline claims",
    )
    return ExperimentReport(
        experiment="headline",
        title="Headline claims",
        text=table,
        measured={
            "time_saved_at_1.0": saved_10,
            "time_saved_at_0.8": saved_08,
            "improvement_at_0.5s_low": min(improvements),
            "improvement_at_0.5s_high": max(improvements),
        },
        paper=dict(PAPER),
    )
