"""The Adaptive Model Scheduling framework — the paper's Fig. 3 loop.

:class:`AdaptiveModelScheduler` is the public entry point a downstream user
adopts: build (or load) a zoo, train (or load) a DRL value predictor, then
label items/streams under whatever constraints apply:

* no constraint  -> Q-greedy with value-aware early stopping,
* deadline       -> Algorithm 1,
* deadline+memory-> Algorithm 2.

Constraints travel as one :class:`~repro.spec.LabelingSpec` — pass
``spec=LabelingSpec(deadline=0.5)`` to any labeling call; omitting it
means the default, unconstrained spec.

The "prediction-scheduling-execution" loop lives in :mod:`repro.engine`:
every labeling call delegates to a :class:`~repro.engine.LabelingEngine`, so
single items, batches, and streams all go through the same backend
machinery.  The default ``batched`` backend runs one stacked Q-network
forward per scheduling round over the in-flight items whose observation
changed and produces traces identical to serial execution; pass another
registry name (``backend="serial"``), a typed
:class:`~repro.engine.config.BackendConfig`, or a constructed backend to
change the execution strategy.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.config import TrainConfig, WorldConfig
from repro.core.reward import RewardConfig
from repro.data.datasets import DataItem
from repro.engine import ExecutionBackend, LabelingEngine, LabelingResult
from repro.engine.engine import DEFAULT_BATCH_SIZE
from repro.rl.agents import QAgent
from repro.rl.training import TrainingResult, train_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.spec import LabelingSpec
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth

__all__ = ["AdaptiveModelScheduler", "LabelingResult", "LabelingSpec"]


class AdaptiveModelScheduler:
    """End-to-end adaptive model scheduling over a model zoo.

    Parameters
    ----------
    zoo:
        The model collection ``M``.
    world_config:
        World parameters (valuable-confidence threshold etc.).
    agent:
        A trained Q agent; when omitted, call :meth:`train` first.
    backend:
        Execution backend used by all labeling calls: a registry name
        (``"batched"``, ``"serial"``, …), a typed config, or an instance.
    batch_size:
        Default number of in-flight items on the streaming/batch paths.
    """

    def __init__(
        self,
        zoo: ModelZoo,
        world_config: WorldConfig | None = None,
        agent: QAgent | None = None,
        backend: str | ExecutionBackend = "batched",
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        self.zoo = zoo
        self.world_config = world_config or WorldConfig()
        self.agent = agent
        self.backend = backend
        self.batch_size = batch_size
        self._training: TrainingResult | None = None

    # -- training -----------------------------------------------------------

    def train(
        self,
        items: Sequence[DataItem],
        algo: str = "dueling_dqn",
        train_config: TrainConfig | None = None,
        reward_config: RewardConfig | None = None,
        truth: GroundTruth | None = None,
    ) -> TrainingResult:
        """Train the value-prediction agent on labeled training items.

        ``truth`` may be passed to reuse an existing ground-truth cache;
        otherwise the zoo is executed on the items to record outputs
        (the paper's offline data-collection step).
        """
        if truth is None:
            truth = GroundTruth(self.zoo, items, self.world_config)
        else:
            truth.add_items(items)
        result = train_agent(
            algo,
            truth,
            [item.item_id for item in items],
            config=train_config,
            reward_config=reward_config,
        )
        self.agent = result.agent
        self._training = result
        return result

    # -- labeling -------------------------------------------------------------

    def _predictor(self) -> AgentPredictor:
        if self.agent is None:
            raise RuntimeError(
                "no trained agent; call train() or pass agent= at construction"
            )
        return AgentPredictor(self.agent, len(self.zoo))

    def engine(self) -> LabelingEngine:
        """The labeling engine all labeling calls delegate to."""
        return LabelingEngine(
            self.zoo,
            self._predictor(),
            self.world_config,
            backend=self.backend,
            batch_size=self.batch_size,
        )

    def label(
        self,
        item: DataItem,
        spec: LabelingSpec | None = None,
        *,
        truth: GroundTruth | None = None,
    ) -> LabelingResult:
        """Label one item under one :class:`LabelingSpec`.

        The spec's regime picks the algorithm:

        * ``deadline`` only — Algorithm 1 (serial).
        * ``deadline`` + ``memory_budget`` — Algorithm 2 (parallel).
        * neither — Q-greedy over all models (optionally capped by
          ``max_models``).
        """
        return self.engine().label_batch([item], spec, truth=truth)[0]

    def label_batch(
        self,
        items: Sequence[DataItem],
        spec: LabelingSpec | None = None,
        *,
        truth: GroundTruth | None = None,
    ) -> list[LabelingResult]:
        """Label a batch of items concurrently (input-ordered results)."""
        return self.engine().label_batch(items, spec, truth=truth)

    def label_stream(
        self,
        items: Iterable[DataItem],
        spec: LabelingSpec | None = None,
        *,
        truth: GroundTruth | None = None,
        batch_size: int | None = None,
    ) -> Iterator[LabelingResult]:
        """Label a stream lazily; see :meth:`LabelingEngine.label_stream`."""
        return self.engine().label_stream(
            items, spec, truth=truth, batch_size=batch_size
        )
