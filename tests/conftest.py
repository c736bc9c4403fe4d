"""Shared fixtures: one mini world per test session.

The mini world (58 labels, 10 models) is structurally identical to the full
1104-label/30-model world; building it and its ground truth once keeps the
suite fast while every algorithmic path is still exercised.  A handful of
tests build the full world explicitly where cardinalities matter.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import TrainConfig, WorldConfig, smoke_scale
from repro.data.datasets import Dataset, generate_dataset, train_test_split
from repro.labels import LabelSpace, build_label_space
from repro.rl.training import TrainingResult, train_agent
from repro.zoo.builder import build_zoo
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth


@pytest.fixture(scope="session")
def world_config() -> WorldConfig:
    return smoke_scale().world


@pytest.fixture(scope="session")
def space(world_config) -> LabelSpace:
    return build_label_space(world_config.vocab_scale)


@pytest.fixture(scope="session")
def zoo(world_config, space) -> ModelZoo:
    return build_zoo(world_config, space)


@pytest.fixture(scope="session")
def dataset(space, world_config) -> Dataset:
    return generate_dataset(space, world_config, "mscoco2017", 150)


@pytest.fixture(scope="session")
def splits(dataset):
    return train_test_split(dataset, seed=0)


@pytest.fixture(scope="session")
def truth(zoo, dataset, world_config) -> GroundTruth:
    return GroundTruth(zoo, dataset, world_config)


@pytest.fixture(scope="session")
def train_config() -> TrainConfig:
    return smoke_scale().train


@pytest.fixture(scope="session")
def trained(truth, splits, train_config) -> TrainingResult:
    """One DuelingDQN trained on the mini world, shared by many tests."""
    train, _ = splits
    return train_agent(
        "dueling_dqn",
        truth,
        [item.item_id for item in train],
        config=train_config.with_(episodes=250),
    )


@pytest.fixture(scope="session")
def test_item_ids(splits) -> list[str]:
    _, test = splits
    return [item.item_id for item in test][:40]


@pytest.fixture(scope="session")
def full_world() -> SimpleNamespace:
    """The full 30-model, 1104-label world: 80 MSCOCO items recorded, the
    last 40 to schedule (``test_ids``)."""
    config = WorldConfig(vocab_scale="full")
    space = build_label_space("full")
    items = generate_dataset(space, config, "mscoco2017", 80)
    ids = [item.item_id for item in items]
    return SimpleNamespace(
        config=config,
        space=space,
        truth=GroundTruth(build_zoo(config, space), items, config),
        test_ids=ids[40:],
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
