"""Adaptive Model Scheduling (AMS) — ICDE 2020 reproduction.

Comprehensive and efficient data labeling: given a zoo of labeling models
and a data stream, adaptively schedule a subset of models per item to
maximize the value of emitted labels under deadline and/or GPU-memory
constraints.

Quickstart::

    from repro import LabelingEngine, LabelingSpec, WorldConfig, build_zoo
    from repro.data.datasets import generate_dataset, train_test_split
    from repro.labels import build_label_space
    from repro.rl.training import train_agent
    from repro.scheduling.qgreedy import AgentPredictor
    from repro.zoo import GroundTruth

    config = WorldConfig()
    space = build_label_space(config.vocab_scale)
    zoo = build_zoo(config, space)
    dataset = generate_dataset(space, config, "mscoco2017", 500)
    train, test = train_test_split(dataset)

    truth = GroundTruth(zoo, train.items, config)
    agent = train_agent("dueling_dqn", truth, [i.item_id for i in train]).agent
    engine = LabelingEngine(zoo, AgentPredictor(agent, len(zoo)), config)
    result = engine.label_batch([test[0]], LabelingSpec(deadline=0.5))[0]
    print(result.label_names, result.time_used)

:class:`LabelingEngine` is the one entry point for labeling (the paper's
Fig. 3 loop); :class:`LabelingResult` is what it returns.
"""

import logging as _logging

from repro.config import TrainConfig, WorldConfig, get_scale
from repro.spec import LabelingSpec
from repro.engine import (
    BatchedBackend,
    ClusterBackend,
    ClusterConfig,
    LabelingEngine,
    LabelingResult,
    ProcessConfig,
    SerialBackend,
    make_backend,
)
from repro.labels import LabelSpace, build_label_space
from repro.serving import LabelingService
from repro.zoo import GroundTruth, ModelZoo, build_zoo

__version__ = "1.3.0"

# Library convention: emit through ``repro.*`` loggers, ship no handlers.
# Applications opt in (e.g. ``repro.cli --log-level``); without that,
# records vanish here instead of falling back to the root logger.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__all__ = [
    "TrainConfig",
    "WorldConfig",
    "get_scale",
    "LabelingResult",
    "LabelingSpec",
    "LabelingEngine",
    "SerialBackend",
    "BatchedBackend",
    "ClusterBackend",
    "ClusterConfig",
    "ProcessConfig",
    "make_backend",
    "LabelingService",
    "LabelSpace",
    "build_label_space",
    "GroundTruth",
    "ModelZoo",
    "build_zoo",
    "__version__",
]
