"""The job/interface types and the two in-process execution backends.

A backend consumes one :class:`LabelingJob` (a batch of recorded items plus
their resolved :class:`~repro.spec.LabelingSpec`) and returns one
:class:`ScheduleTrace` per item.  All backends implement the same per-item
semantics — dispatch on :attr:`LabelingSpec.regime` — and must produce
traces identical to :class:`SerialBackend`, the single-item reference:

* :class:`SerialBackend` — one item at a time, exactly the pre-engine code
  path; the parity baseline.
* :class:`BatchedBackend` — vectorized: all in-flight items advance in
  lock-step rounds, with **one** stacked Q-network forward pass per round
  across the whole batch, in *every* regime — unconstrained, deadline,
  and deadline+memory all delegate to their scheduler's
  ``schedule_batch`` dispatch tick.  Selection per item replays the
  serial rule (masked ``argmax`` with first-index tie-breaking), so
  traces stay identical while network cost is amortized over the batch.
  Caveat: the stacked ``(B, n)`` forward and the serial ``(1, n)``
  forward may differ in the last ULP on some BLAS builds, so exact
  parity additionally assumes no two candidate Q values sit within that
  rounding distance — vanishingly rare with continuous weights, and
  enforced empirically by the parity tests on seeded worlds.

The backends that leave the process — the process pool and the socket
cluster — are two transports under the one chunk protocol in
:mod:`repro.engine.sharded`; their workers run :class:`BatchedBackend`
on each chunk.

Q-network inference is stateless (``train=False`` forwards cache nothing)
and ground-truth records are only read during scheduling, which is what
lets the serving tier's worker threads share one engine without locks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scheduling.base import (
    ScheduleTrace,
    run_ordering_policy,
)
from repro.scheduling.deadline import CostQGreedyScheduler
from repro.scheduling.deadline_memory import MemoryDeadlineScheduler
from repro.scheduling.qgreedy import QGreedyPolicy, QValuePredictor
from repro.spec import LabelingSpec
from repro.zoo.oracle import GroundTruth


@dataclass(frozen=True)
class LabelingJob:
    """One batch of already-recorded items plus their resolved spec."""

    truth: GroundTruth
    item_ids: tuple[str, ...]
    spec: LabelingSpec = LabelingSpec()

    def __post_init__(self):
        if not isinstance(self.spec, LabelingSpec):
            raise TypeError(
                f"spec must be a LabelingSpec, got {type(self.spec).__name__}"
            )
        missing = [i for i in self.item_ids if i not in self.truth]
        if missing:
            raise KeyError(f"items not recorded in ground truth: {missing[:3]}")


class ExecutionBackend:
    """Interface: drive one job's items through the scheduling loop."""

    #: Registry name, set by subclasses.
    name = "backend"

    @staticmethod
    def check_fields(**fields) -> None:
        """Raise ``ValueError`` for a constructor field that is out of range.

        The one validation gate per backend: its constructor and its typed
        :class:`~repro.engine.config.BackendConfig` both call this with
        every field by name, so either entry point fails eagerly with the
        same message.  The in-process backends take no fields.
        """

    def run(
        self, job: LabelingJob, predictor: QValuePredictor
    ) -> list[ScheduleTrace]:
        """One trace per job item, aligned with ``job.item_ids``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend-held resources (worker pools); default no-op.

        Lifecycle owners (the CLI, the serving tier, benchmarks) call
        this unconditionally when they are done with a backend they
        constructed.
        """

    def refresh(self, predictor: QValuePredictor) -> None:
        """Adopt retrained predictor weights for subsequent jobs.

        In-process backends receive the predictor per :meth:`run` call,
        so the default is a no-op.  Backends that hold worker-side
        copies of the world override this: the process pool drops its
        pool (the next job re-ships a fresh snapshot), the cluster
        backend hot-swaps weights fleet-wide with a control message.
        """


def schedule_one_item(
    job: LabelingJob, predictor: QValuePredictor, item_id: str
) -> ScheduleTrace:
    """The per-item regime dispatch every backend must reproduce."""
    spec = job.spec
    regime = spec.regime
    if regime == "deadline_memory":
        return MemoryDeadlineScheduler(predictor).schedule(
            job.truth, item_id, spec.deadline, spec.memory_budget
        )
    if regime == "deadline":
        return CostQGreedyScheduler(predictor).schedule(
            job.truth, item_id, spec.deadline
        )
    return run_ordering_policy(
        QGreedyPolicy(predictor), job.truth, item_id, max_models=spec.max_models
    )


class SerialBackend(ExecutionBackend):
    """Reference semantics: items one at a time, one forward per step."""

    name = "serial"

    def run(
        self, job: LabelingJob, predictor: QValuePredictor
    ) -> list[ScheduleTrace]:
        return [
            schedule_one_item(job, predictor, item_id) for item_id in job.item_ids
        ]


class BatchedBackend(ExecutionBackend):
    """Vectorized lock-step rounds with one stacked forward per round.

    Every regime delegates to its scheduler's ``schedule_batch`` dispatch
    tick: round ``k`` of the batch corresponds to step ``k`` of each
    serial run (one selection per item per round; for deadline+memory,
    one pivot wave plus one completion per round), so the observations
    stacked for the round are the very states the serial loop would have
    predicted on.  Selection is a masked argmax over the
    ``(B, n_models)`` score matrix — identical elementwise math and
    first-index tie-breaking as the serial subset argmax, hence
    per-item trace parity with :class:`SerialBackend` (see the module
    docstring for the stacked-forward ULP caveat).  Items leave the
    batch when their serial stop condition fires (budget exhausted, all
    models run, ``max_models`` hit).
    """

    name = "batched"

    def run(
        self, job: LabelingJob, predictor: QValuePredictor
    ) -> list[ScheduleTrace]:
        spec = job.spec
        regime = spec.regime
        if regime == "deadline_memory":
            return MemoryDeadlineScheduler(predictor).schedule_batch(
                job.truth, job.item_ids, spec.deadline, spec.memory_budget
            )
        if regime == "deadline":
            return CostQGreedyScheduler(predictor).schedule_batch(
                job.truth, job.item_ids, spec.deadline
            )
        return QGreedyPolicy(predictor).schedule_batch(
            job.truth, job.item_ids, max_models=spec.max_models
        )


# BACKEND_REGISTRY and make_backend live in repro.engine.config: the
# registry maps names to (backend, typed config) pairs and resolution is
# validated eagerly there.  Re-exported from repro.engine for callers.
