"""Fig. 2 + §II data-driven analysis: no policy vs random vs optimal.

The paper runs all 30 models over 394k images from MSCOCO + Places365 +
MirFlickr25 and reports the per-image time cost of three policies that all
recall *every* valuable label:

* no policy  — run everything: 5.16 s/image;
* random     — random order until all valuable labels recalled: 4.64 s;
* optimal    — only the useful executions: 1.14 s (22.1% of no policy),

plus the CDF of per-image costs.  We replay the same protocol on the
synthetic datasets.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.common import (
    ExperimentContext,
    ExperimentReport,
    PREDICTION_DATASETS,
)
from repro.experiments.grid import cdf_table, recall_times, traces
from repro.scheduling.qgreedy import QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor

PAPER = {
    "no_policy_time": 5.16,
    "random_time": 4.64,
    "optimal_time": 1.14,
    "optimal_fraction": 0.221,
}


def run(ctx: ExperimentContext, n_items: int | None = None) -> ExperimentReport:
    """Measure the three §II policies on the mixed dataset."""
    truth = ctx.truth
    item_ids: list[str] = []
    per_dataset = max(10, (n_items or ctx.scale.eval_items) // 3)
    for dataset in PREDICTION_DATASETS:
        item_ids.extend(ctx.eval_ids(dataset, per_dataset))

    no_policy_time = ctx.zoo.total_time
    # Random: execute in random order until all valuable labels are in.
    policies = {"random": QGreedyPolicy(RandomOrderPredictor(seed=7))}
    random_costs = recall_times(traces(truth, item_ids, policies)["random"])
    # Optimal: execute exactly the useful models.
    optimal_costs = [
        float(ctx.zoo.times[truth.record(item_id).useful_models].sum())
        for item_id in item_ids
    ]

    random_time = float(np.mean(random_costs))
    optimal_time = float(np.mean(optimal_costs))
    fraction = optimal_time / no_policy_time

    rows = [
        ("no policy", f"{PAPER['no_policy_time']:.2f}", f"{no_policy_time:.2f}"),
        ("random policy", f"{PAPER['random_time']:.2f}", f"{random_time:.2f}"),
        ("optimal policy", f"{PAPER['optimal_time']:.2f}", f"{optimal_time:.2f}"),
        (
            "optimal / no policy",
            f"{PAPER['optimal_fraction']:.1%}",
            f"{fraction:.1%}",
        ),
    ]
    table = format_table(
        ("policy", "paper s/img", "measured s/img"),
        rows,
        title="Fig. 2 (left): average per-item time to recall all valuable labels",
    )

    cdfs = cdf_table(
        "Fig. 2 (right): CDF of per-item time cost",
        {"random_cdf": random_costs, "optimal_cdf": optimal_costs},
        no_policy_time,
    )

    return ExperimentReport(
        experiment="fig02",
        title="Data-driven analysis: no/random/optimal policies",
        text=table + "\n\n" + cdfs,
        measured={
            "no_policy_time": no_policy_time,
            "random_time": random_time,
            "optimal_time": optimal_time,
            "optimal_fraction": fraction,
        },
        paper=dict(PAPER),
    )
