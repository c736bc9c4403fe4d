"""The sharded-backend contract, stated once.

Everything :class:`repro.engine.sharded.ShardedBackend` owns — serial
parity, post-snapshot deltas, predictors crossing the boundary, the
local shortcut, world affinity, chunk errors, snapshot reuse — is the
same promise whichever transport carries the chunks, so it is written
here once and each transport's test module binds it to its backend:
``tests/test_process_backend.py`` (executor pipe) and
``tests/test_cluster_backend.py`` (TCP frames).  Those modules keep their
historical test names and add only what is transport: pool respawn,
re-dispatch, rejoin, dialing, refresh, placement.

Every ``check_*`` takes a constructed, not yet entered, backend and
closes it.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine import LabelingEngine
from repro.scheduling.qgreedy import (
    AgentPredictor,
    OraclePredictor,
    QValuePredictor,
)
from repro.spec import LabelingSpec
from repro.zoo.oracle import GroundTruth

#: All three paper regimes plus the capped q-greedy variant.
REGIMES = (
    LabelingSpec(),
    LabelingSpec(max_models=4),
    LabelingSpec(deadline=0.35),
    LabelingSpec(deadline=0.5, memory_budget=8000.0),
)


class PoisonPredictor(QValuePredictor):
    """Picklable predictor that raises on one designated item."""

    def __init__(self, n_models: int, poison: str | None = None):
        self.n_models = n_models
        self.poison = poison

    def predict(self, state):
        if state.item_id == self.poison:
            raise RuntimeError(f"poisoned item {state.item_id}")
        return np.zeros(self.n_models)


def assert_parity(got, ref):
    assert len(got) == len(ref)
    for r, g in zip(ref, got):
        assert g.item_id == r.item_id
        assert g.trace.executions == r.trace.executions
        assert g.trace.total_value == r.trace.total_value
        assert g.label_names == r.label_names


class ShardedContract:
    """Mixin: the mini world plus one ``check_*`` per clause of the contract."""

    @pytest.fixture(autouse=True)
    def _bind_world(self, zoo, world_config, trained, truth, splits):
        self.zoo = zoo
        self.world_config = world_config
        self.trained = trained
        self.truth = truth
        self.items = splits[1].items[:12]

    def new_predictor(self) -> AgentPredictor:
        """A fresh predictor object: a new world as far as a backend can tell."""
        return AgentPredictor(self.trained.agent, len(self.zoo))

    def engine(self, backend, predictor=None) -> LabelingEngine:
        return LabelingEngine(
            self.zoo,
            predictor or self.new_predictor(),
            self.world_config,
            backend=backend,
        )

    def check_serial_parity(self, backend):
        predictor = self.new_predictor()
        serial = self.engine("serial", predictor)
        with backend:
            sharded = self.engine(backend, predictor)
            for regime in REGIMES:
                ref = serial.label_batch(self.items, regime, truth=self.truth)
                got = sharded.label_batch(self.items, regime, truth=self.truth)
                assert len(got) == len(self.items)
                assert_parity(got, ref)
            transport = backend.chunk_stats["transport"]
        assert transport and not any(key.endswith("pickle") for key in transport)

    def check_post_snapshot_records_ship_as_deltas(self, backend):
        # The snapshot is captured at the first job, so a later job over
        # items it never saw must carry their records with each chunk —
        # and still match the serial run (the world is deterministic per
        # item id).  A job on an ephemeral truth then rides the same
        # snapshot: the world key is the zoo and predictor, not the truth.
        predictor = self.new_predictor()
        ref = self.engine("serial", predictor).label_batch(self.items, truth=self.truth)
        shared = GroundTruth(self.zoo, [], self.world_config)
        with backend:
            engine = self.engine(backend, predictor)
            first = engine.label_batch(self.items[:6], truth=shared)
            before = backend.chunk_stats["transport"]
            second = engine.label_batch(self.items[6:], truth=shared)
            after = backend.chunk_stats["transport"]
            snapshot = backend._snapshot
            ephemeral = engine.label_batch(self.items)
            assert backend._snapshot is snapshot
        assert_parity(first + second, ref)
        assert_parity(ephemeral, ref)

        def deltas(counts):
            return sum(n for key, n in counts.items() if key.startswith("delta_"))

        assert deltas(after) > deltas(before)  # post-snapshot records shipped

    def check_oracle_predictor_crosses_the_boundary(self, backend):
        oracle = OraclePredictor(self.truth)
        ref = self.engine("serial", oracle).label_batch(
            self.items[:6], truth=self.truth
        )
        with backend:
            got = self.engine(backend, oracle).label_batch(
                self.items[:6], truth=self.truth
            )
        assert_parity(got, ref)

    def check_single_item_takes_the_local_path(self, backend):
        with backend:
            [result] = self.engine(backend).label_batch(
                self.items[:1], truth=self.truth
            )
            assert result.item_id == self.items[0].item_id
            # Nothing was captured, shipped or chunked, yet it is counted.
            assert backend._snapshot is None
            assert backend.chunk_stats["chunks"] == 0
            assert backend.dispatch_counts == {os.getpid(): 1}

    def check_world_switch_while_in_flight_raises(self, backend):
        # Concurrent jobs from different worlds must fail loudly instead
        # of cancelling each other's chunks (simulated in-flight job).
        first, second = self.new_predictor(), self.new_predictor()
        four = self.items[:4]
        with backend:
            self.engine(backend, first).label_batch(four, truth=self.truth)
            backend._active += 1  # another thread mid-run()
            try:
                with pytest.raises(RuntimeError, match="world-affine"):
                    self.engine(backend, second).label_batch(four, truth=self.truth)
            finally:
                backend._active -= 1
            # same-world traffic was never blocked
            self.engine(backend, first).label_batch(four, truth=self.truth)

    def check_chunk_error_fails_the_job_not_the_workers(self, backend):
        """``backend`` must be built with ``chunk_size=2``."""
        items = self.items
        poison = PoisonPredictor(len(self.zoo), poison=items[1].item_id)
        with backend:
            engine = self.engine(backend, poison)
            with pytest.raises(RuntimeError, match="poisoned item"):
                engine.label_batch(items[:6], truth=self.truth)
            # The workers survived: a job avoiding the poisoned item runs.
            clean = engine.label_batch(items[2:6], truth=self.truth)
            assert [r.item_id for r in clean] == [i.item_id for i in items[2:6]]

    def check_snapshot_shipped_once_and_reused(self, backend, connection):
        """``connection(backend)`` is what a re-ship would have replaced."""
        with backend:
            engine = self.engine(backend)
            engine.label_batch(self.items, truth=self.truth)
            snapshot, live = backend._snapshot, connection(backend)
            engine.label_batch(self.items, LabelingSpec(deadline=0.4), truth=self.truth)
            assert backend._snapshot is snapshot  # no re-capture ...
            assert connection(backend) == live  # ... no respawn, no reconnect
            assert sum(backend.dispatch_counts.values()) == 2 * len(self.items)
        assert backend._snapshot is None  # context exit closed the backend
