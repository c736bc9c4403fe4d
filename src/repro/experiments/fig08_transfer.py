"""Fig. 8: knowledge transferability across datasets (§VI-D).

Agent1 is trained on Stanford40 (action-centric), Agent2 on PASCAL VOC 2012
(broad objects); both are evaluated on both test sets with the Q-greedy
policy, measuring the average time to recall *all* valuable labels.  Paper:
agents average 1.94-2.63 s vs random 4.04-4.12 s — 51.1% / 36.9% time saved
on Dataset1 / Dataset2 even for the cross-trained agent.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import empirical_cdf
from repro.analysis.metrics import savings
from repro.analysis.tables import format_series, format_table
from repro.experiments.common import ExperimentContext, ExperimentReport
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


def time_to_full_recall(policy, truth, item_ids) -> list[float]:
    """Per-item time until all valuable labels are recalled."""
    costs = []
    for item_id in item_ids:
        trace = policy.schedule(truth, item_id)
        _, t = trace.cost_to_recall(1.0)
        costs.append(t)
    return costs


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
            name: time_to_full_recall(policy, truth, item_ids)
            for name, policy in agents.items()
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
        grid = np.round(np.arange(0.0, ctx.zoo.total_time + 0.26, 0.5), 2)
        cdfs = {
            name: empirical_cdf(cost, grid)[1] for name, cost in costs.items()
        }
        sections.append(
            format_series(
                "time_s",
                grid,
                cdfs,
                title=f"Fig. 8 CDF ({tag}={dataset})",
            )
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
