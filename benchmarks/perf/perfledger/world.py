"""The fixed world every workload runs in, and the seeded items fed to it.

The world (label space, model zoo, trained agent) is the program's
configuration and is the same for every ``--seed``: the benchmark's
cross-seed spread then measures the program, not thirty differently
drawn models.  ``--seed`` decides the *inputs*: which items are drawn,
their order, Zipf picks and arrival gaps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import (
    GroundTruth,
    LabelingSpec,
    TrainConfig,
    WorldConfig,
    build_label_space,
    build_zoo,
)
from repro.data.streams import iid_stream
from repro.rl.agents import make_agent
from repro.rl.training import train_agent
from repro.scheduling.qgreedy import AgentPredictor

DATASET = "mscoco2017"
ALGO = "dueling_dqn"

#: The three regimes used everywhere, in their fixed rotation order.
SPECS = {
    "qgreedy": LabelingSpec(),
    "deadline": LabelingSpec(deadline=0.35),
    "deadline_memory": LabelingSpec(deadline=0.5, memory_budget=8000.0),
}

#: Item indices the agent trains on; far below every seeded input range
#: and above the gateway's catalog (indices 0..catalog-1).
TRAIN_START = 50_000
#: Seeded inputs start here; each seed owns a disjoint index range.
INPUT_START = 1_000_000
INPUT_RANGE = 1 << 20


@dataclass(frozen=True)
class Scale:
    """How big the world and each repetition are."""

    name: str
    vocab: str
    hidden: int
    episodes: int
    train_items: int
    #: Work per repetition is the full-size amount divided by this.
    shrink: int
    setup_reps: int

    def work(self, full: int, multiple: int = 1) -> int:
        """``full / shrink`` rounded down to a multiple, at least one."""
        return max(multiple, full // self.shrink // multiple * multiple)


FULL = Scale("full", "full", 256, 60, 100, shrink=1, setup_reps=3)
SMOKE = Scale("smoke", "mini", 32, 30, 40, shrink=8, setup_reps=2)
SCALES = {scale.name: scale for scale in (FULL, SMOKE)}


class World:
    """Label space + zoo + predictor shared by one workload process."""

    def __init__(self, scale: Scale):
        self.scale = scale
        self.config = WorldConfig(vocab_scale=scale.vocab)
        self.space = build_label_space(scale.vocab)
        self.zoo = build_zoo(self.config, self.space)
        self.agent = None
        self.train_s = 0.0

    def items(self, seed: int, offset: int, n: int) -> list:
        """``n`` items of this seed's input range, starting at ``offset``."""
        start = INPUT_START + (seed % 4096) * INPUT_RANGE + offset
        return list(iid_stream(self.space, self.config, DATASET, n, start))

    def empty_truth(self) -> GroundTruth:
        return GroundTruth(self.zoo, [], self.config)

    def train(self) -> None:
        """Train the agent (deterministic: fixed items, fixed train seed)."""
        started = time.perf_counter()
        items = list(
            iid_stream(
                self.space, self.config, DATASET, self.scale.train_items, TRAIN_START
            )
        )
        truth = GroundTruth(self.zoo, items, self.config)
        result = train_agent(
            ALGO,
            truth,
            list(truth.item_ids),
            config=TrainConfig(
                episodes=self.scale.episodes, hidden_size=self.scale.hidden
            ),
        )
        self.agent = result.agent
        self.train_s = time.perf_counter() - started

    def load_agent(self, path) -> None:
        agent = make_agent(
            ALGO,
            obs_dim=len(self.space),
            n_actions=len(self.zoo) + 1,
            hidden_size=self.scale.hidden,
        )
        agent.load(path)
        self.agent = agent

    def predictor(self) -> AgentPredictor:
        return AgentPredictor(self.agent, len(self.zoo))
