"""Fig. 12: transferred agents under deadline constraints (§VI-F end).

Same transfer setting as Fig. 8 (Agent1=Stanford40-trained,
Agent2=VOC2012-trained) but scheduling with Algorithm 1 under deadlines.
Paper headline: at a 1.0 s deadline the agents improve recalled value over
random by +346.8%/+250.5% (Agent1) and +224.9%/+190.5% (Agent2) on
Dataset1/Dataset2.
"""

from __future__ import annotations

from repro.analysis.metrics import improvement, nearest
from repro.analysis.tables import format_series
from repro.experiments.common import ExperimentContext, ExperimentReport
from repro.experiments.grid import recall_curves
from repro.scheduling.deadline import (
    CostQGreedyScheduler,
    QGreedyDeadlineScheduler,
    RelaxedOptimalDeadline,
)
from repro.scheduling.random_policy import RandomStepPredictor

PAPER = {
    "agent1_improvement_dataset1_at_1s": 3.468,
    "agent2_improvement_dataset1_at_1s": 2.249,
    "agent1_improvement_dataset2_at_1s": 2.505,
    "agent2_improvement_dataset2_at_1s": 1.905,
}

DATASET1 = "stanford40"
DATASET2 = "voc2012"
DEADLINES = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)


def run(
    ctx: ExperimentContext,
    deadlines: tuple[float, ...] = DEADLINES,
    n_items: int | None = None,
) -> ExperimentReport:
    for dataset in (DATASET1, DATASET2):
        ctx.ensure_truth(dataset)
    truth = ctx.truth
    policies = {
        "agent1": CostQGreedyScheduler(ctx.predictor(DATASET1, "dueling_dqn")),
        "agent2": CostQGreedyScheduler(ctx.predictor(DATASET2, "dueling_dqn")),
        "random": QGreedyDeadlineScheduler(RandomStepPredictor(seed=41)),
        "optimal_star": RelaxedOptimalDeadline(),
    }
    budgets = [(deadline,) for deadline in deadlines]

    sections = []
    measured: dict[str, float] = {}
    for tag, dataset in (("dataset1", DATASET1), ("dataset2", DATASET2)):
        item_ids = ctx.eval_ids(dataset, n_items)
        curves = recall_curves(truth, item_ids, policies, budgets)
        sections.append(
            format_series(
                "deadline_s",
                deadlines,
                curves,
                title=f"Fig. 12 ({tag}={dataset}): value recall vs deadline",
            )
        )
        i1 = nearest(deadlines, 1.0)
        for name in ("agent1", "agent2"):
            imp = improvement(curves["random"][i1], curves[name][i1])
            measured[f"{name}_improvement_{tag}_at_1s"] = imp

    summary = "transferred agents vs random @1.0s deadline: " + ", ".join(
        f"{k}={v:+.1%}" for k, v in measured.items()
    )
    return ExperimentReport(
        experiment="fig12",
        title="Transferred agents under deadline constraints",
        text="\n\n".join(sections + [summary]),
        measured=measured,
        paper=dict(PAPER),
    )
