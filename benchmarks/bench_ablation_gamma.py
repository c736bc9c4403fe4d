"""Ablation: discount factor gamma.

The paper's agents predict the *value of a model* given the labeling state
— a near-myopic quantity.  A large gamma bundles the episode's remaining
value into every Q estimate and destroys per-model discrimination; this
ablation motivated the library default of gamma = 0.2 (see
``repro.config.TrainConfig``).
"""

from conftest import run_and_print

from repro.analysis.metrics import average_cost_curves
from repro.analysis.tables import format_table
from repro.config import smoke_scale
from repro.data.datasets import generate_dataset, train_test_split
from repro.experiments.common import ExperimentReport
from repro.labels import build_label_space
from repro.rl.training import train_agent
from repro.scheduling.qgreedy import AgentPredictor, QGreedyPolicy
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth

GAMMAS = (0.0, 0.2, 0.5, 0.9)


def _run(_ctx) -> ExperimentReport:
    scale = smoke_scale()
    space = build_label_space("mini")
    zoo = build_zoo(scale.world, space)
    dataset = generate_dataset(space, scale.world, "mscoco2017", 200)
    train, test = train_test_split(dataset)
    truth = GroundTruth(zoo, dataset, scale.world)
    train_ids = [i.item_id for i in train]
    test_ids = [i.item_id for i in test][:40]

    rows = []
    measured = {}
    for gamma in GAMMAS:
        result = train_agent(
            "dueling_dqn",
            truth,
            train_ids,
            config=scale.train.with_(episodes=300, gamma=gamma),
        )
        policy = QGreedyPolicy(AgentPredictor(result.agent, len(zoo)))
        traces = [policy.schedule(truth, i) for i in test_ids]
        curve = average_cost_curves(f"gamma={gamma}", traces)
        models_08 = curve.at(0.8)[0]
        measured[f"models_at_0.8_gamma_{gamma:g}"] = models_08
        rows.append((f"{gamma:g}", f"{models_08:.2f}"))

    table = format_table(
        ("gamma", "avg models @0.8 recall"),
        rows,
        title="Ablation: discount factor (mini world)",
    )
    summary = (
        "expected: near-myopic gammas (0-0.5) discriminate model values; "
        "gamma=0.9 blurs them and scheduling quality degrades"
    )
    return ExperimentReport(
        experiment="ablation_gamma",
        title="Gamma ablation",
        text=table + "\n" + summary,
        measured=measured,
    )


def test_ablation_gamma(benchmark):
    report = run_and_print(benchmark, "ablation_gamma", _run)
    m = report.measured
    # The library default must not be worse than the high-gamma variant.
    assert (
        m["models_at_0.8_gamma_0.2"] <= m["models_at_0.8_gamma_0.9"] + 0.5
    )
