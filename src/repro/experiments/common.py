"""Shared experiment setup: world, datasets, ground truth, trained agents.

Everything is cached per (scale, dataset, algo, ...) inside the process so
benchmark modules can share one world and one set of trained agents; the
``paper`` scale additionally persists trained agents under
``~/.cache/repro-ams`` so repeated runner invocations skip training.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path


from repro.config import ExperimentScale, get_scale
from repro.core.reward import RewardConfig
from repro.data.datasets import Dataset, generate_dataset, train_test_split
from repro.labels import LabelSpace, build_label_space
from repro.rl.agents import QAgent, make_agent
from repro.rl.training import train_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.zoo.builder import build_zoo
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth

#: The three datasets of Figs. 4/5/10 and the two transfer datasets (§VI-D).
PREDICTION_DATASETS = ("mscoco2017", "mirflickr25", "places365")
TRANSFER_DATASETS = ("stanford40", "voc2012")
ALL_ALGOS = ("dqn", "double_dqn", "dueling_dqn", "deep_sarsa")


@dataclass
class ExperimentReport:
    """Human-readable experiment result: text plus raw measured series."""

    experiment: str
    title: str
    text: str
    #: Measured headline numbers, keyed by metric name.
    measured: dict[str, float] = field(default_factory=dict)
    #: The paper's corresponding numbers, keyed identically where possible.
    paper: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"== {self.experiment}: {self.title} ==\n{self.text}"


class ExperimentContext:
    """Lazily-built, cached world + data + agents for one scale preset."""

    def __init__(self, scale: ExperimentScale | str = "bench"):
        self.scale = get_scale(scale) if isinstance(scale, str) else scale
        self.space: LabelSpace = build_label_space(self.scale.world.vocab_scale)
        self.zoo: ModelZoo = build_zoo(self.scale.world, self.space)
        self._datasets: dict[str, tuple[Dataset, Dataset]] = {}
        self._truth: GroundTruth | None = None
        self._agents: dict[tuple, QAgent] = {}

    # -- data -----------------------------------------------------------------

    def splits(self, dataset: str) -> tuple[Dataset, Dataset]:
        """(train, test) split of a dataset at this scale (1:4 as §VI-A)."""
        if dataset not in self._datasets:
            full = generate_dataset(
                self.space, self.scale.world, dataset, self.scale.items_per_dataset
            )
            self._datasets[dataset] = train_test_split(full)
        return self._datasets[dataset]

    def eval_ids(self, dataset: str, n: int | None = None) -> list[str]:
        """Test-item ids used for evaluation (subsampled deterministically)."""
        _, test = self.splits(dataset)
        n = n or self.scale.eval_items
        sampled = test.sample(n, seed=13)
        ids = [item.item_id for item in sampled]
        self.truth.add_items(sampled)
        return ids

    @property
    def truth(self) -> GroundTruth:
        """One shared ground-truth cache; items added on demand."""
        if self._truth is None:
            self._truth = GroundTruth(self.zoo, [], self.scale.world)
        return self._truth

    def ensure_truth(self, dataset: str) -> GroundTruth:
        """Ground truth covering the dataset's full train+test splits."""
        train, test = self.splits(dataset)
        self.truth.add_items(train)
        self.truth.add_items(test)
        return self.truth

    # -- agents -----------------------------------------------------------------

    def agent(
        self,
        dataset: str,
        algo: str = "dueling_dqn",
        reward_config: RewardConfig | None = None,
        tag: str = "",
    ) -> QAgent:
        """A trained agent for (dataset, algo); cached per context.

        ``reward_config``/``tag`` distinguish e.g. theta-priority variants.
        """
        key = (dataset, algo, tag)
        if key not in self._agents:
            truth = self.ensure_truth(dataset)
            train, _ = self.splits(dataset)
            cache_path = self._cache_path(key)
            if cache_path is not None and cache_path.exists():
                agent = self._load_agent(algo, cache_path)
            else:
                result = train_agent(
                    algo,
                    truth,
                    [item.item_id for item in train],
                    config=self.scale.train,
                    reward_config=reward_config,
                )
                agent = result.agent
                if cache_path is not None:
                    cache_path.parent.mkdir(parents=True, exist_ok=True)
                    agent.save(cache_path)
            self._agents[key] = agent
        return self._agents[key]

    def predictor(
        self,
        dataset: str,
        algo: str = "dueling_dqn",
        reward_config: RewardConfig | None = None,
        tag: str = "",
    ) -> AgentPredictor:
        return AgentPredictor(
            self.agent(dataset, algo, reward_config, tag), len(self.zoo)
        )

    # -- persistence ---------------------------------------------------------------

    def _cache_path(self, key: tuple) -> Path | None:
        """Disk cache only at paper scale (bench runs stay self-contained)."""
        if self.scale.name != "paper":
            return None
        root = Path(
            os.environ.get("REPRO_CACHE_DIR", Path.home() / ".cache" / "repro-ams")
        )
        dataset, algo, tag = key
        suffix = f"-{tag}" if tag else ""
        name = (
            f"{self.scale.name}-{self.scale.world.seed}-{dataset}-{algo}"
            f"-{self.scale.train.episodes}ep{suffix}.npz"
        )
        return root / name

    def _load_agent(self, algo: str, path: Path) -> QAgent:
        agent = make_agent(
            algo,
            obs_dim=len(self.space),
            n_actions=len(self.zoo) + 1,
            hidden_size=self.scale.train.hidden_size,
            learning_rate=self.scale.train.learning_rate,
            gamma=self.scale.train.gamma,
            seed=self.scale.train.seed,
        )
        agent.load(path)
        return agent
