"""The job/interface types and the two in-process execution backends.

A backend consumes one :class:`LabelingJob` (a batch of recorded items plus
their resolved :class:`~repro.spec.LabelingSpec`) and returns one
:class:`ScheduleTrace` per item.  All backends implement the same per-item
semantics — dispatch on :attr:`LabelingSpec.regime` — and must produce
traces identical to :class:`SerialBackend`, the single-item reference:

* :class:`SerialBackend` — one item at a time, one ``(1, n)`` forward per
  step; the parity baseline.
* :class:`BatchedBackend` — all in-flight items advance in lock-step rounds
  with **one** stacked forward per round over the rows whose observation
  changed, in every regime.  Both run the same per-item episode under the
  same selection (see :mod:`repro.scheduling.base`), so parity is structural
  — with one caveat: a stacked ``(B, n)`` forward (a reused row's included)
  and the serial ``(1, n)`` forward may differ in the last ULP on some BLAS
  builds, so exact parity additionally assumes no two candidate Q values sit
  within that rounding distance — vanishingly rare with continuous weights,
  and enforced empirically by the parity tests on seeded worlds.

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

from repro.scheduling.base import ScheduleTrace
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


def _regime(spec: LabelingSpec, predictor: QValuePredictor):
    """The one regime table: ``(scheduler, budget arguments)`` for a spec.

    Every scheduler exposes the same pair, ``schedule(truth, item_id,
    *budgets)`` and ``schedule_batch(truth, item_ids, *budgets)``.
    """
    if spec.regime == "deadline_memory":
        return MemoryDeadlineScheduler(predictor), (spec.deadline, spec.memory_budget)
    if spec.regime == "deadline":
        return CostQGreedyScheduler(predictor), (spec.deadline,)
    return QGreedyPolicy(predictor), (spec.max_models,)


def schedule_one_item(
    job: LabelingJob, predictor: QValuePredictor, item_id: str
) -> ScheduleTrace:
    """The per-item regime dispatch every backend must reproduce."""
    scheduler, budgets = _regime(job.spec, predictor)
    return scheduler.schedule(job.truth, item_id, *budgets)


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
    """Lock-step rounds, one stacked forward per round over the rows whose
    observation changed; episodes and selection as in :class:`SerialBackend`."""

    name = "batched"

    def run(
        self, job: LabelingJob, predictor: QValuePredictor
    ) -> list[ScheduleTrace]:
        scheduler, budgets = _regime(job.spec, predictor)
        return scheduler.schedule_batch(job.truth, job.item_ids, *budgets)


# BACKEND_REGISTRY and make_backend live in repro.engine.config: the
# registry maps names to (backend, typed config) pairs and resolution is
# validated eagerly there.  Re-exported from repro.engine for callers.
