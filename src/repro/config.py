"""Configuration presets for the world, RL training, and experiment scale.

Three scales are used throughout the repository:

``smoke``
    A structurally identical mini world (58 labels, 10 models) for unit
    tests; everything runs in seconds.
``bench``
    The full 1104-label / 30-model world with shortened RL training and a
    few hundred items — the default for ``benchmarks/``.
``paper``
    The full world with longer training and thousands of items, for
    ``python -m repro.experiments.runner --scale paper``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from numbers import Integral


#: Confidence threshold above which an emitted label counts as "valuable"
#: (the paper's "high-confidence labels").
VALUABLE_CONFIDENCE = 0.5


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of the simulated world (datasets + model zoo)."""

    #: Vocabulary scale: "full" (1104 labels, 30 models) or "mini".
    vocab_scale: str = "full"
    #: Base seed from which all dataset / model randomness derives.
    seed: int = 20200208  # the paper's arXiv date
    #: Confidence threshold for a label to be "valuable".
    valuable_confidence: float = VALUABLE_CONFIDENCE
    #: Total zoo execution time per item, seconds (the paper's 5.16 s).
    zoo_total_time: float = 5.16

    def with_seed(self, seed: int) -> "WorldConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for DRL agent training (Section IV-B)."""

    episodes: int = 400
    #: Hidden layer width (paper uses 256 at full scale).
    hidden_size: int = 256
    learning_rate: float = 1e-3
    #: Discount factor.  The paper's agents predict the *value of a model*
    #: given the labeling state — a near-myopic quantity.  Large gamma
    #: bundles the whole episode's remaining value into every Q and
    #: destroys per-model discrimination (verified by the gamma ablation
    #: bench); 0.2 keeps the four algorithms' bootstrap rules distinct
    #: while matching the paper's prediction semantics.
    gamma: float = 0.2
    batch_size: int = 64
    replay_capacity: int = 50_000
    #: Environment steps between gradient updates.
    update_every: int = 1
    #: Environment steps between target-network syncs.
    target_sync_every: int = 250
    #: Epsilon-greedy schedule: linear decay from start to end over a
    #: fraction of the expected total steps.
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.6
    #: Steps collected before learning starts.
    warmup_steps: int = 200
    #: Whether the END action is available during training (paper: yes).
    use_end_action: bool = True
    seed: int = 7

    def __post_init__(self) -> None:
        """Reject values that would void training or crash it mid-run."""
        counts = ("episodes", "hidden_size", "batch_size", "replay_capacity")
        for name in (*counts, "update_every", "target_sync_every", "warmup_steps"):
            value, floor = getattr(self, name), 0 if name == "warmup_steps" else 1
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        # The agents' bootstrap needs gamma < 1; NaN fails every comparison.
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 < self.learning_rate <= sys.float_info.max:
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")

    def with_(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ExperimentScale:
    """Bundle of knobs controlling how big an experiment run is."""

    name: str
    world: WorldConfig
    train: TrainConfig
    #: Items generated per dataset (split 1:4 train:test as in §VI-A).
    items_per_dataset: int
    #: Items actually evaluated per policy (subsample of the test split).
    eval_items: int

    @property
    def is_full_world(self) -> bool:
        return self.world.vocab_scale == "full"


def smoke_scale(seed: int = 20200208) -> ExperimentScale:
    """Tiny preset for unit tests."""
    return ExperimentScale(
        name="smoke",
        world=WorldConfig(vocab_scale="mini", seed=seed, zoo_total_time=1.0),
        train=TrainConfig(
            episodes=80,
            hidden_size=32,
            target_sync_every=100,
            warmup_steps=50,
            batch_size=32,
        ),
        items_per_dataset=150,
        eval_items=40,
    )


def bench_scale(seed: int = 20200208) -> ExperimentScale:
    """Full world, shortened training — default for benchmarks."""
    return ExperimentScale(
        name="bench",
        world=WorldConfig(vocab_scale="full", seed=seed),
        train=TrainConfig(episodes=180, hidden_size=96),
        items_per_dataset=400,
        eval_items=80,
    )


def paper_scale(seed: int = 20200208) -> ExperimentScale:
    """Full world, long training — for the experiments runner."""
    return ExperimentScale(
        name="paper",
        world=WorldConfig(vocab_scale="full", seed=seed),
        train=TrainConfig(episodes=900, hidden_size=256),
        items_per_dataset=2500,
        eval_items=400,
    )


_SCALES = {"smoke": smoke_scale, "bench": bench_scale, "paper": paper_scale}


def get_scale(name: str, seed: int = 20200208) -> ExperimentScale:
    """Look up a scale preset by name."""
    try:
        factory = _SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        ) from None
    return factory(seed)
