"""Fig. 7: a qualitative scheduled execution sequence (§VI-C).

The paper visualizes the DuelingDQN agent's Q-greedy order on one
MirFlickr25 image: a place classifier fires first ("pub"), object
detectors find cups/persons, then the action classifier confirms
"drinking beer" — the learned ordering follows common-sense semantics.

We reproduce the narrative: pick a test item whose content exercises the
same chain and print the scheduled sequence with each model's output.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentContext, ExperimentReport
from repro.scheduling.qgreedy import QGreedyPolicy


def run(
    ctx: ExperimentContext,
    dataset: str = "mirflickr25",
    max_steps: int = 8,
) -> ExperimentReport:
    truth = ctx.ensure_truth(dataset)
    item_ids = ctx.eval_ids(dataset)
    policy = QGreedyPolicy(ctx.predictor(dataset, "dueling_dqn"))

    # Pick the richest item: most valuable labels from most distinct tasks.
    def richness(item_id: str) -> tuple[int, float]:
        rec = truth.record(item_id)
        tasks = {
            ctx.zoo[j].task
            for j in range(len(ctx.zoo))
            if rec.solo_values[j] > 0
        }
        return (len(tasks), rec.total_value)

    item_id = max(item_ids, key=richness)
    trace = policy.schedule(truth, item_id, max_models=max_steps)

    lines = [f"Item {item_id} — Q-greedy execution sequence (first {max_steps}):"]
    for step, execution in enumerate(trace.executions, start=1):
        output = truth.output(item_id, execution.model_index)
        valuable = output.valuable(truth.threshold)
        shown = ", ".join(str(l) for l in valuable[:4]) or "<nothing valuable>"
        if len(valuable) > 4:
            shown += f", ... (+{len(valuable) - 4} labels)"
        lines.append(
            f"  {step}. {execution.model_name:24s} "
            f"[+{execution.marginal_value:5.2f} value] {shown}"
        )
    lines.append(
        "Expected shape (paper): early picks hit the item's actual content; "
        "later picks mop up or return nothing."
    )
    gained = trace.value_obtained / max(trace.total_value, 1e-9)
    lines.append(
        f"Recall after {len(trace.executions)} of {len(ctx.zoo)} models: {gained:.1%}"
    )
    return ExperimentReport(
        experiment="fig07",
        title="Qualitative scheduled sequence",
        text="\n".join(lines),
        measured={"recall_after_sequence": gained},
        paper={},
    )
