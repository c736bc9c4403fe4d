"""Picklable world snapshots for multi-process scheduling workers.

The scheduling loop is CPU-bound pure Python/numpy, so escaping the GIL
means shipping the *world* — zoo, recorded ground truth, value predictor,
spec — into worker processes.  Shipping it naively (re-pickling the full
``GroundTruth`` per batch) would drown the speedup in serialization, so
:class:`WorldSnapshot` captures everything a worker needs **once**:

* **zoo build parameters** — the zoo is deterministic in its
  :class:`~repro.config.WorldConfig`, so workers rebuild it from the
  config via :func:`~repro.zoo.builder.build_zoo` instead of unpickling
  thirty model objects; a zoo that does not match its config's standard
  build (hand-assembled zoos) falls back to being pickled wholesale;
* **recorded item shards** — the parent's :class:`ItemRecord` values at
  capture time, adopted into each worker's own
  :class:`~repro.zoo.oracle.GroundTruth` (items recorded *after* capture
  travel as small per-chunk deltas, see :mod:`repro.engine.sharded`);
* **the predictor** — an :class:`~repro.scheduling.qgreedy.AgentPredictor`
  is reduced to ``(algo, dims, state_dict)`` and rebuilt with
  :func:`~repro.rl.agents.make_agent` + ``load_state_dict``; an
  :class:`~repro.scheduling.qgreedy.OraclePredictor` is re-anchored on the
  worker's truth; anything else must simply be picklable.

The snapshot is immutable after capture: agent weights are copied, records
are frozen dataclasses.  A worker that restores the same snapshot twice
produces identical predictors, which is what keeps process traces
parity-identical to :class:`~repro.engine.backends.SerialBackend`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.config import WorldConfig
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import (
    AgentPredictor,
    OraclePredictor,
    QValuePredictor,
)
from repro.zoo.builder import build_zoo
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth, ItemRecord

__all__ = ["WorldSnapshot", "capture_predictor", "restore_predictor"]


def _zoo_matches_config(zoo: ModelZoo, config: WorldConfig) -> bool:
    """Whether ``build_zoo(config)`` reproduces ``zoo`` exactly."""
    rebuilt = build_zoo(config)
    return (
        rebuilt.names == zoo.names
        and len(rebuilt.space) == len(zoo.space)
        and np.array_equal(rebuilt.times, zoo.times)
        and np.array_equal(rebuilt.mems, zoo.mems)
    )


def capture_predictor(predictor: QValuePredictor) -> tuple:
    """Reduce a predictor to a small picklable payload.

    The payload round-trips through :func:`restore_predictor`; it is
    what :class:`WorldSnapshot` ships per worker and what the cluster
    backend's ``refresh`` control message carries for fleet-wide weight
    hot-swaps.
    """
    if isinstance(predictor, AgentPredictor):
        agent = predictor.agent
        state = {key: value.copy() for key, value in agent.state_dict().items()}
        return (
            "agent",
            agent.algo,
            agent.obs_dim,
            agent.n_actions,
            agent.hidden_size,
            predictor.n_models,
            state,
        )
    if isinstance(predictor, OraclePredictor):
        return ("oracle", predictor.item_id)
    try:
        return ("pickled", pickle.dumps(predictor))
    except Exception as exc:
        raise TypeError(
            f"cannot snapshot predictor {type(predictor).__name__} for "
            f"multi-process scheduling: not an AgentPredictor/OraclePredictor "
            f"and not picklable ({exc})"
        ) from exc


@dataclass(frozen=True)
class WorldSnapshot:
    """Everything one scheduling worker needs, shipped once per worker."""

    #: World parameters; the zoo and label space rebuild from these.
    config: WorldConfig
    #: Pickled zoo, only when it cannot be rebuilt from ``config``.
    zoo_payload: bytes | None
    #: Ground-truth records present at capture time.
    records: tuple[ItemRecord, ...]
    #: Reduced predictor (see :func:`capture_predictor`).
    predictor_payload: tuple

    @classmethod
    def capture(
        cls, truth: GroundTruth, predictor: QValuePredictor
    ) -> "WorldSnapshot":
        """Freeze the parent's world for shipment to worker processes."""
        zoo_payload = None
        if not _zoo_matches_config(truth.zoo, truth.config):
            zoo_payload = pickle.dumps(truth.zoo)
        return cls(
            config=truth.config,
            zoo_payload=zoo_payload,
            records=truth.records_snapshot(),
            predictor_payload=capture_predictor(predictor),
        )

    @property
    def item_ids(self) -> frozenset[str]:
        """Ids whose records ship with the snapshot (no per-chunk delta)."""
        return frozenset(record.item.item_id for record in self.records)

    def restore(self) -> tuple[GroundTruth, QValuePredictor]:
        """Rebuild (truth, predictor) inside a worker process."""
        if self.zoo_payload is not None:
            zoo = pickle.loads(self.zoo_payload)
        else:
            zoo = build_zoo(self.config)
        truth = GroundTruth(zoo, [], self.config)
        truth.adopt(self.records)
        return truth, self._restore_predictor(truth)

    def _restore_predictor(self, truth: GroundTruth) -> QValuePredictor:
        return restore_predictor(self.predictor_payload, truth)


def restore_predictor(payload: tuple, truth: GroundTruth) -> QValuePredictor:
    """Rebuild a predictor from a :func:`capture_predictor` payload."""
    kind = payload[0]
    if kind == "agent":
        _, algo, obs_dim, n_actions, hidden_size, n_models, state = payload
        agent = make_agent(
            algo, obs_dim=obs_dim, n_actions=n_actions, hidden_size=hidden_size
        )
        agent.load_state_dict(state)
        return AgentPredictor(agent, n_models)
    if kind == "oracle":
        return OraclePredictor(truth, payload[1])
    return pickle.loads(payload[1])
