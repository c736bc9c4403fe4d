"""Fig. 6 + Table II: agent knowledge vs handcrafted rules (§VI-C).

The rule-based policy applies the ten Table II rules as execution
probability multipliers.  The paper finds it saves only 22.6% executions at
0.8 recall (2.1% at 1.0) vs the random policy, while the DuelingDQN agent
saves far more — handcrafted pairwise rules cannot capture the semantic
structure at 30-model/1104-label scale.
"""

from __future__ import annotations

from repro.analysis.metrics import DEFAULT_RECALL_GRID, savings
from repro.analysis.tables import format_series, format_table
from repro.experiments.common import ExperimentContext, ExperimentReport
from repro.experiments.grid import cost_curves
from repro.scheduling.optimal import SoloValuePredictor
from repro.scheduling.qgreedy import QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor
from repro.scheduling.rules import HANDCRAFTED_RULES, RulePredictor

PAPER = {
    "rules_models_saved_at_0.8": 0.226,
    "rules_models_saved_at_1.0": 0.021,
    "rules_time_saved_at_0.8": 0.201,
    "rules_time_saved_at_1.0": 0.014,
}


def run(
    ctx: ExperimentContext,
    dataset: str = "mscoco2017",
    n_items: int | None = None,
) -> ExperimentReport:
    truth = ctx.ensure_truth(dataset)
    item_ids = ctx.eval_ids(dataset, n_items)
    policies = {
        "rules": QGreedyPolicy(RulePredictor(seed=5)),
        "dueling_dqn": QGreedyPolicy(ctx.predictor(dataset, "dueling_dqn")),
        "random": QGreedyPolicy(RandomOrderPredictor(seed=5)),
        "optimal": QGreedyPolicy(SoloValuePredictor()),
    }
    curves = cost_curves(truth, item_ids, policies)

    rules_table = format_table(
        ("#", "rule"),
        [(i + 1, r.description) for i, r in enumerate(HANDCRAFTED_RULES)],
        title="Table II: the ten handcrafted rules",
    )
    fig = format_series(
        "recall",
        DEFAULT_RECALL_GRID,
        {name: c.avg_models for name, c in curves.items()},
        title=f"Fig. 6 (left, {dataset}): avg #executed models vs recall",
        precision=2,
    )
    fig_time = format_series(
        "recall",
        DEFAULT_RECALL_GRID,
        {name: c.avg_time for name, c in curves.items()},
        title=f"Fig. 6 (right, {dataset}): avg execution time (s) vs recall",
    )

    rnd = curves["random"]
    rules = curves["rules"]
    agent = curves["dueling_dqn"]
    measured = {
        "rules_models_saved_at_0.8": savings(rnd.at(0.8)[0], rules.at(0.8)[0]),
        "rules_models_saved_at_1.0": savings(rnd.at(1.0)[0], rules.at(1.0)[0]),
        "rules_time_saved_at_0.8": savings(rnd.at(0.8)[1], rules.at(0.8)[1]),
        "rules_time_saved_at_1.0": savings(rnd.at(1.0)[1], rules.at(1.0)[1]),
        "dueling_models_saved_at_0.8": savings(rnd.at(0.8)[0], agent.at(0.8)[0]),
    }
    summary = (
        f"rules vs random: models saved @0.8 = "
        f"{measured['rules_models_saved_at_0.8']:.1%} (paper 22.6%), @1.0 = "
        f"{measured['rules_models_saved_at_1.0']:.1%} (paper 2.1%); "
        f"DuelingDQN saves {measured['dueling_models_saved_at_0.8']:.1%} @0.8 — "
        "the agent dominates handcrafted rules"
    )
    return ExperimentReport(
        experiment="fig06",
        title="Agent knowledge vs handcrafted rules",
        text="\n\n".join([rules_table, fig, fig_time, summary]),
        measured=measured,
        paper=dict(PAPER),
    )
