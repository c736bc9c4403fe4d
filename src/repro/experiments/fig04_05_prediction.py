"""Figs. 4 & 5: RL-based model value prediction quality (§VI-B).

For each of MSCOCO 2017, MirFlickr25 and Places365, run the Q-value greedy
policy of each agent (DQN, DoubleDQN, DuelingDQN, DeepSARSA) plus random
and optimal baselines, and report the average number of executed models
(Fig. 4) and average execution time (Fig. 5) needed to reach each recall
threshold of the true output value.

Headline paper numbers: vs the random policy, the best agent (DuelingDQN)
saves 44.1-60.6% executions at 0.8 recall and 48.4-50.0% at 1.0 recall
(Fig. 4), and 45.6-59.5% / 48.6-51.2% execution time (Fig. 5).
"""

from __future__ import annotations

from repro.analysis.metrics import DEFAULT_RECALL_GRID, PolicyCurve, savings
from repro.analysis.tables import format_series
from repro.experiments.common import (
    ALL_ALGOS,
    ExperimentContext,
    ExperimentReport,
    PREDICTION_DATASETS,
)
from repro.experiments.grid import cost_curves
from repro.scheduling.optimal import SoloValuePredictor
from repro.scheduling.qgreedy import QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor

PAPER = {
    # DuelingDQN vs random (ranges over the three datasets).
    "dueling_models_saved_at_0.8_low": 0.441,
    "dueling_models_saved_at_0.8_high": 0.606,
    "dueling_models_saved_at_1.0_low": 0.484,
    "dueling_models_saved_at_1.0_high": 0.500,
    "dueling_time_saved_at_0.8_low": 0.456,
    "dueling_time_saved_at_0.8_high": 0.595,
    "optimal_models_saved_at_0.8_low": 0.793,
    "optimal_models_saved_at_0.8_high": 0.840,
}


def curves_for_dataset(
    ctx: ExperimentContext,
    dataset: str,
    algos: tuple[str, ...] = ALL_ALGOS,
    n_items: int | None = None,
) -> dict[str, PolicyCurve]:
    """Cost-vs-recall curves for every policy on one dataset."""
    truth = ctx.ensure_truth(dataset)
    item_ids = ctx.eval_ids(dataset, n_items)
    policies = {
        "random": QGreedyPolicy(RandomOrderPredictor(seed=11)),
        "optimal": QGreedyPolicy(SoloValuePredictor()),
    }
    for algo in algos:
        policies[algo] = QGreedyPolicy(ctx.predictor(dataset, algo))
    return cost_curves(truth, item_ids, policies)


def run(
    ctx: ExperimentContext,
    datasets: tuple[str, ...] = PREDICTION_DATASETS,
    algos: tuple[str, ...] = ALL_ALGOS,
    n_items: int | None = None,
) -> ExperimentReport:
    sections: list[str] = []
    measured: dict[str, float] = {}
    dueling_key = "dueling_dqn" if "dueling_dqn" in algos else algos[0]

    model_savings_08: list[float] = []
    model_savings_10: list[float] = []
    time_savings_08: list[float] = []

    for dataset in datasets:
        curves = curves_for_dataset(ctx, dataset, algos, n_items)
        sections.append(
            format_series(
                "recall",
                DEFAULT_RECALL_GRID,
                {name: c.avg_models for name, c in curves.items()},
                title=f"Fig. 4 ({dataset}): avg #executed models vs recall",
                precision=2,
            )
        )
        sections.append(
            format_series(
                "recall",
                DEFAULT_RECALL_GRID,
                {name: c.avg_time for name, c in curves.items()},
                title=f"Fig. 5 ({dataset}): avg execution time (s) vs recall",
            )
        )
        rnd, agent = curves["random"], curves[dueling_key]
        m08 = savings(rnd.at(0.8)[0], agent.at(0.8)[0])
        m10 = savings(rnd.at(1.0)[0], agent.at(1.0)[0])
        t08 = savings(rnd.at(0.8)[1], agent.at(0.8)[1])
        model_savings_08.append(m08)
        model_savings_10.append(m10)
        time_savings_08.append(t08)
        measured[f"{dataset}_dueling_models_saved_at_0.8"] = m08
        measured[f"{dataset}_dueling_models_saved_at_1.0"] = m10
        measured[f"{dataset}_dueling_time_saved_at_0.8"] = t08
        measured[f"{dataset}_optimal_models_saved_at_0.8"] = savings(
            rnd.at(0.8)[0], curves["optimal"].at(0.8)[0]
        )

    measured["dueling_models_saved_at_0.8_low"] = min(model_savings_08)
    measured["dueling_models_saved_at_0.8_high"] = max(model_savings_08)
    measured["dueling_models_saved_at_1.0_low"] = min(model_savings_10)
    measured["dueling_models_saved_at_1.0_high"] = max(model_savings_10)
    measured["dueling_time_saved_at_0.8_low"] = min(time_savings_08)
    measured["dueling_time_saved_at_0.8_high"] = max(time_savings_08)

    summary = (
        f"DuelingDQN vs random: models saved @0.8 recall = "
        f"{min(model_savings_08):.1%}-{max(model_savings_08):.1%} "
        f"(paper 44.1%-60.6%), @1.0 = "
        f"{min(model_savings_10):.1%}-{max(model_savings_10):.1%} "
        f"(paper 48.4%-50.0%)"
    )
    return ExperimentReport(
        experiment="fig04_05",
        title="RL-based model value prediction (Q-greedy vs baselines)",
        text="\n\n".join(sections + [summary]),
        measured=measured,
        paper=dict(PAPER),
    )
