"""Ablation: reward smoothing (§IV-A).

The paper motivates log smoothing: raw confidence sums make many-label
models (face landmarks emit up to 70 labels) drown out single-label models;
log (or mean) smoothing keeps rewards in one order of magnitude.  We train
with each smoothing and compare scheduling quality at 0.8 recall.
"""

from conftest import run_and_print

from repro.analysis.metrics import average_cost_curves
from repro.analysis.tables import format_table
from repro.config import smoke_scale
from repro.core.reward import RewardConfig
from repro.data.datasets import generate_dataset, train_test_split
from repro.experiments.common import ExperimentReport
from repro.labels import build_label_space
from repro.rl.training import train_agent
from repro.scheduling.qgreedy import AgentPredictor, QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth


def _run(_ctx) -> ExperimentReport:
    scale = smoke_scale()
    space = build_label_space("mini")
    zoo = build_zoo(scale.world, space)
    dataset = generate_dataset(space, scale.world, "mscoco2017", 200)
    train, test = train_test_split(dataset)
    truth = GroundTruth(zoo, dataset, scale.world)
    train_ids = [i.item_id for i in train]
    test_ids = [i.item_id for i in test][:40]

    random_traces = [
        QGreedyPolicy(RandomOrderPredictor(seed=3)).schedule(truth, i)
        for i in test_ids
    ]
    random_curve = average_cost_curves("random", random_traces)

    rows = []
    measured = {"random_models_at_0.8": random_curve.at(0.8)[0]}
    for smoothing in ("log", "mean", "identity"):
        result = train_agent(
            "dueling_dqn",
            truth,
            train_ids,
            config=scale.train.with_(episodes=300),
            reward_config=RewardConfig(smoothing=smoothing),
        )
        policy = QGreedyPolicy(AgentPredictor(result.agent, len(zoo)))
        traces = [policy.schedule(truth, i) for i in test_ids]
        curve = average_cost_curves(smoothing, traces)
        models_08 = curve.at(0.8)[0]
        measured[f"{smoothing}_models_at_0.8"] = models_08
        rows.append((smoothing, f"{models_08:.2f}"))
    rows.append(("(random)", f"{random_curve.at(0.8)[0]:.2f}"))

    table = format_table(
        ("reward smoothing", "avg models @0.8 recall"),
        rows,
        title="Ablation: reward smoothing (mini world)",
    )
    summary = (
        "paper §IV-A: log and mean smoothing behave similarly (same order "
        "of magnitude); the raw sum is the variant the paper argues against"
    )
    return ExperimentReport(
        experiment="ablation_reward",
        title="Reward smoothing ablation",
        text=table + "\n" + summary,
        measured=measured,
    )


def test_ablation_reward_smoothing(benchmark):
    report = run_and_print(benchmark, "ablation_reward", _run)
    m = report.measured
    # Both paper-endorsed smoothings must beat random scheduling.
    assert m["log_models_at_0.8"] < m["random_models_at_0.8"]
    assert m["mean_models_at_0.8"] < m["random_models_at_0.8"]
