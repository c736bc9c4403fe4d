"""Quickstart: train a scheduling agent and label items under a deadline.

Run with::

    python examples/quickstart.py

This uses the mini world (10 models, 58 labels) so the whole script
finishes in well under a minute on a laptop.  Swap ``vocab_scale`` to
``"full"`` for the paper's 30-model / 1104-label setup.
"""

from repro import LabelingEngine, LabelingSpec, WorldConfig, build_zoo
from repro.config import TrainConfig
from repro.data.datasets import generate_dataset, train_test_split
from repro.labels import build_label_space
from repro.rl.training import train_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.zoo.oracle import GroundTruth


def main() -> None:
    # 1. Build the world: label space + simulated model zoo.
    config = WorldConfig(vocab_scale="mini", zoo_total_time=1.0)
    space = build_label_space(config.vocab_scale)
    zoo = build_zoo(config, space)
    print(f"zoo: {len(zoo)} models, {len(space)} labels, "
          f"{zoo.total_time:.2f}s to run everything\n")

    # 2. Generate data and split 1:4 (the paper's protocol).
    dataset = generate_dataset(space, config, "mscoco2017", 300)
    train, test = train_test_split(dataset)

    # 3. Train the DRL value-prediction agent (DuelingDQN = paper's best)
    # on the recorded outputs of the training items.
    truth = GroundTruth(zoo, dataset, config)  # record-once, replay-often
    result = train_agent(
        "dueling_dqn",
        truth,
        [item.item_id for item in train],
        config=TrainConfig(episodes=300, hidden_size=32),
    )
    print(f"trained {len(result.episode_returns)} episodes "
          f"({result.total_steps} env steps)\n")

    # The engine runs the paper's Fig. 3 loop with the trained agent as
    # its value predictor.  Its default "batched" backend runs one stacked
    # Q-network forward per scheduling round across all in-flight items.
    engine = LabelingEngine(zoo, AgentPredictor(result.agent, len(zoo)), config)

    # 4. Label a few test items under a 0.3 s deadline (Algorithm 1).
    # Constraints travel as one LabelingSpec.
    spec = LabelingSpec(deadline=0.3)
    for item in test[:5]:
        [labeled] = engine.label_batch([item], spec, truth=truth)
        labels = ", ".join(str(l) for l in labeled.labels[:5]) or "<none>"
        print(f"{labeled.item_id}: {len(labeled.models_executed)} models in "
              f"{labeled.time_used * 1000:.0f}ms -> {labels}")
        print(f"   executed: {', '.join(labeled.models_executed)}")
        print(f"   recall of available label value: {labeled.recall:.0%}\n")

    # 5. The same items with no constraint: Q-greedy over the whole zoo.
    [unconstrained] = engine.label_batch([test[0]], truth=truth)
    print(f"unconstrained run of {unconstrained.item_id}: "
          f"{len(unconstrained.labels)} labels, "
          f"{unconstrained.time_used:.2f}s")

    # 6. Throughput path: label a whole batch at once — the same traces as
    # one item at a time, far fewer forwards.
    batch = engine.label_batch(test.items[:64], spec, truth=truth)
    mean_recall = sum(r.trace.recall_by(0.3) for r in batch) / len(batch)
    print(f"\nbatch of {len(batch)} items via the batched backend: "
          f"mean recall by deadline {mean_recall:.0%}")


if __name__ == "__main__":
    main()
