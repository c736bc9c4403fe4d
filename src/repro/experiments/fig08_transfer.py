"""Fig. 8: knowledge transferability across datasets (§VI-D).

Agent1 is trained on Stanford40 (action-centric), Agent2 on PASCAL VOC 2012
(broad objects); both are evaluated on both test sets with the Q-greedy
policy, measuring the average time to recall *all* valuable labels.  Paper:
agents average 1.94-2.63 s vs random 4.04-4.12 s — 51.1% / 36.9% time saved
on Dataset1 / Dataset2 even for the cross-trained agent.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import savings
from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentContext, ExperimentReport
from repro.experiments.grid import cdf_table, recall_times, traces
from repro.scheduling.optimal import SoloValuePredictor
from repro.scheduling.qgreedy import QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor

PAPER = {
    "agent1_dataset1_time": 1.94,
    "agent2_dataset1_time": 2.09,
    "random_dataset1_time": 4.12,
    "optimal_dataset1_time": 0.79,
    "agent1_dataset2_time": 2.63,
    "agent2_dataset2_time": 2.47,
    "random_dataset2_time": 4.04,
    "optimal_dataset2_time": 0.68,
    "agents_saved_dataset1": 0.511,
    "agents_saved_dataset2": 0.369,
}

DATASET1 = "stanford40"
DATASET2 = "voc2012"


def run(ctx: ExperimentContext, n_items: int | None = None) -> ExperimentReport:
    for dataset in (DATASET1, DATASET2):
        ctx.ensure_truth(dataset)
    truth = ctx.truth
    agents = {
        "agent1": QGreedyPolicy(ctx.predictor(DATASET1, "dueling_dqn")),
        "agent2": QGreedyPolicy(ctx.predictor(DATASET2, "dueling_dqn")),
        "random": QGreedyPolicy(RandomOrderPredictor(seed=3)),
        "optimal": QGreedyPolicy(SoloValuePredictor()),
    }
    measured: dict[str, float] = {}
    sections: list[str] = []
    for tag, dataset in (("dataset1", DATASET1), ("dataset2", DATASET2)):
        item_ids = ctx.eval_ids(dataset, n_items)
        costs = {
            name: recall_times(runs)
            for name, runs in traces(truth, item_ids, agents).items()
        }
        means = {name: float(np.mean(c)) for name, c in costs.items()}
        for name, value in means.items():
            measured[f"{name}_{tag}_time"] = value
        agent_mean = 0.5 * (means["agent1"] + means["agent2"])
        measured[f"agents_saved_{tag}"] = savings(means["random"], agent_mean)
        rows = [
            (
                name,
                f"{PAPER.get(f'{name}_{tag}_time', float('nan')):.2f}",
                f"{means[name]:.2f}",
            )
            for name in ("agent1", "agent2", "random", "optimal")
        ]
        sections.append(
            format_table(
                ("policy", "paper s/img", "measured s/img"),
                rows,
                title=f"Fig. 8 ({tag}={dataset}): avg time to 100% recall",
            )
        )
        sections.append(
            cdf_table(f"Fig. 8 CDF ({tag}={dataset})", costs, ctx.zoo.total_time)
        )
    summary = (
        f"agents save {measured['agents_saved_dataset1']:.1%} on dataset1 "
        f"(paper 51.1%) and {measured['agents_saved_dataset2']:.1%} on "
        "dataset2 (paper 36.9%) — cross-trained knowledge transfers"
    )
    return ExperimentReport(
        experiment="fig08",
        title="Knowledge transferability (Stanford40 <-> VOC2012)",
        text="\n\n".join(sections + [summary]),
        measured=measured,
        paper=dict(PAPER),
    )
