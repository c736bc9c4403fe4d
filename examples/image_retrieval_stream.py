"""Image-retrieval ingestion: label a photo stream under per-image deadlines.

The paper's motivating application (§I): an image retrieval platform runs a
zoo of models per uploaded image to maximize searchable keywords, but each
image has a strict ingestion deadline.  This example compares three
ingestion pipelines over the same stream:

* **no policy** — run all 30 models on every image (the 5.16 s/image
  baseline of §II),
* **random**    — random models until the deadline,
* **adaptive**  — Algorithm 1 with a trained DuelingDQN value predictor.

It prints per-pipeline throughput and the keyword recall each achieves.
"""

import numpy as np

from repro import WorldConfig, build_zoo
from repro.config import TrainConfig
from repro.data.datasets import generate_dataset, train_test_split
from repro.data.streams import iid_stream
from repro.labels import build_label_space
from repro.rl.training import train_agent
from repro.scheduling.deadline import CostQGreedyScheduler, QGreedyDeadlineScheduler
from repro.scheduling.qgreedy import AgentPredictor
from repro.scheduling.random_policy import RandomStepPredictor
from repro.zoo.oracle import GroundTruth

DEADLINE = 0.25  # seconds per image
N_STREAM = 60


def main() -> None:
    config = WorldConfig(vocab_scale="mini", zoo_total_time=1.0)
    space = build_label_space(config.vocab_scale)
    zoo = build_zoo(config, space)

    # Train the value predictor on an offline sample (MirFlickr profile:
    # social photography, like a photo-sharing platform's uploads).
    offline = generate_dataset(space, config, "mirflickr25", 300)
    train, _ = train_test_split(offline)
    truth = GroundTruth(zoo, offline, config)
    result = train_agent(
        "dueling_dqn",
        truth,
        [i.item_id for i in train],
        config=TrainConfig(episodes=300, hidden_size=32),
    )
    predictor = AgentPredictor(result.agent, len(zoo))

    # Fresh stream of uploads.
    stream = list(
        iid_stream(space, config, "mirflickr25", N_STREAM, start_index=10_000)
    )
    truth.add_items(stream)

    adaptive = CostQGreedyScheduler(predictor)
    random_sched = QGreedyDeadlineScheduler(RandomStepPredictor(seed=1))

    recalls = {"no_policy": [], "random": [], "adaptive": []}
    keywords = {"no_policy": 0, "random": 0, "adaptive": 0}
    for item in stream:
        total = truth.total_value(item.item_id)
        record = truth.record(item.item_id)
        # no policy: everything, no deadline — full recall, full cost
        recalls["no_policy"].append(1.0)
        keywords["no_policy"] += int((record.best_confidence > 0).sum())

        for name, scheduler in (("random", random_sched), ("adaptive", adaptive)):
            trace = scheduler.schedule(truth, item.item_id, DEADLINE)
            recalls[name].append(trace.recall_by(DEADLINE))
            got = set()
            for e in trace.executions:
                if e.finish_time <= DEADLINE:
                    output = truth.output(item.item_id, e.model_index)
                    got |= {l.label_id for l in output.valuable(truth.threshold)}
            keywords[name] += len(got)

    print(f"stream: {N_STREAM} images, deadline {DEADLINE * 1000:.0f}ms/image\n")
    header = f"{'pipeline':12s} {'s/image':>9s} {'keywords':>9s} {'value recall':>13s}"
    print(header)
    print("-" * len(header))
    costs = {
        "no_policy": zoo.total_time,
        "random": DEADLINE,
        "adaptive": DEADLINE,
    }
    for name in ("no_policy", "random", "adaptive"):
        print(
            f"{name:12s} {costs[name]:9.3f} {keywords[name]:9d} "
            f"{np.mean(recalls[name]):13.1%}"
        )
    speedup = zoo.total_time / DEADLINE
    print(
        f"\nadaptive ingests {speedup:.1f}x faster than 'no policy' while "
        f"keeping {np.mean(recalls['adaptive']):.0%} of the keyword value "
        f"(random keeps {np.mean(recalls['random']):.0%})."
    )


if __name__ == "__main__":
    main()
