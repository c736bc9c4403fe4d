"""Scheduling under deadline + memory constraints (Algorithm 2, §V-B).

Multi-processor, shared-memory setting: several models may run in parallel
as long as their summed memory stays within ``Bmem``; the whole schedule
must finish within ``Btime``.  The heuristic per the paper:

1. among affordable models, pick the pivot maximizing
   ``Q / (time * mem)`` — the best value per unit resource *area*;
2. set the pivot's finish time as a temporary deadline and greedily pack
   models maximizing ``Q / mem`` that fit the remaining memory (and the
   temporary deadline);
3. when any running model finishes, release its memory, update the labeling
   state with its output, and re-enter the loop with fresh Q predictions.

Execution is simulated event-drive: outputs are revealed at a model's
*finish* time, and only executions finishing within the deadline count
towards the value (recall) metrics.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from repro.core.state import LabelingState
from repro.scheduling.base import (
    Episode,
    ScheduledExecution,
    ScheduleTrace,
    run_episode,
    run_lockstep,
)
from repro.scheduling.optimal import relaxed_optimal_value
from repro.scheduling.qgreedy import QValuePredictor
from repro.zoo.oracle import GroundTruth


class _ParallelSim:
    """Shared bookkeeping for the parallel schedulers below."""

    def __init__(self, truth: GroundTruth, item_id: str, memory_budget: float):
        self.truth = truth
        self.state = LabelingState(truth, item_id)
        self.trace = ScheduleTrace(
            item_id=item_id, total_value=truth.total_value(item_id)
        )
        self.clock = 0.0
        self.free_mem = memory_budget
        #: ``(finish, model, start)`` per running model.  The start instant
        #: is kept, not recomputed as ``finish - time``: that loses float
        #: precision and breaks the invariant that a model starting the
        #: instant another finishes reuses its memory.
        self.heap: list[tuple[float, int, float]] = []
        #: Boolean mask of the models in ``heap``.
        self.running = np.zeros(len(truth.zoo), dtype=bool)

    @property
    def startable_mask(self) -> np.ndarray:
        """Boolean mask of models neither finished nor currently running."""
        return ~(self.state.executed | self.running)

    @property
    def startable(self) -> np.ndarray:
        """Models neither finished nor currently running (indices)."""
        return np.nonzero(self.startable_mask)[0]

    def start(self, index: int) -> None:
        model = self.truth.zoo[index]
        if model.mem > self.free_mem + 1e-9:
            raise RuntimeError(f"model {model.name} does not fit in memory")
        self.free_mem -= model.mem
        self.running[index] = True
        heapq.heappush(self.heap, (self.clock + model.time, index, self.clock))

    def finish_next(self) -> None:
        """Advance the clock to the next completion and record it."""
        finish_time, index, start_time = heapq.heappop(self.heap)
        model = self.truth.zoo[index]
        before = self.state.value
        _, new_confs = self.state.execute(index)
        self.free_mem += model.mem
        self.clock = finish_time
        self.running[index] = False
        self.trace.executions.append(
            ScheduledExecution(
                model_index=index,
                model_name=model.name,
                start_time=start_time,
                finish_time=finish_time,
                marginal_value=self.state.value - before,
                new_labels=len(new_confs),
            )
        )


def _areas(truth: GroundTruth) -> np.ndarray:
    """Per-model ``time × mem`` resource area: Algorithm 2's pivot cost and
    the unit of the relaxed optimal* budget."""
    return truth.zoo.times * truth.zoo.mems


class MemoryDeadlineScheduler:
    """Algorithm 2: the two-dimension cost-Q heuristic.

    One algorithm text (:meth:`_episode`), two drivers: :meth:`schedule`
    steps it with one prediction per pivot wave — the serial reference —
    and :meth:`schedule_batch` steps many items in lock-step with one
    stacked prediction per round, the path the engine backends use.
    Both pick the pivot maximizing ``Q / (time × mem)``; the memory-packing
    fill passes are the episode's own (each start consumes that item's
    free memory) and reuse the wave's Q row (see
    :mod:`repro.scheduling.base` for the episode protocol).
    """

    name = "memory_deadline"

    def __init__(self, predictor: QValuePredictor):
        self.predictor = predictor

    def _episode(
        self,
        truth: GroundTruth,
        item_id: str,
        time_budget: float,
        memory_budget: float,
    ) -> Episode:
        """Algorithm 2 for one item: at t = 0 and at every completion
        before the deadline, start a pivot wave if anything fits."""
        sim = _ParallelSim(truth, item_id, memory_budget)
        times = truth.zoo.times
        mems = truth.zoo.mems
        time_of, mem_of = times.tolist(), mems.tolist()

        while sim.clock < time_budget:
            # Pivot: best value per unit (time x memory) area among models
            # that fit free memory (Algorithm 2 line 3) and can still finish
            # before the deadline.  The deadline part is our addition in the
            # spirit of Algorithm 1's line 3 — without it the last pivot
            # wave is pure waste; the random baseline deliberately keeps the
            # paper's waste (see RandomMemoryDeadlineScheduler).
            candidates = (
                sim.startable_mask
                & (mems <= sim.free_mem + 1e-9)
                & (sim.clock + times <= time_budget + 1e-9)
            )
            if candidates.any():
                pivot, q = yield sim.state, candidates
                sim.start(pivot)
                # Fill remaining memory: best value per unit memory among
                # models finishing within the temporary (pivot) deadline
                # (Algorithm 2 line 7), then — refinement over the
                # pseudocode — a second pass bounded by the global deadline,
                # so leftover memory is not idled when only
                # longer-than-pivot models remain.  Within a pass free
                # memory only falls and clock and deadline hold, so a model
                # that stops fitting never fits again: repeating the
                # first-index argmax of ``Q / mem`` over what fits is one
                # walk down the stable descending order.
                order = np.argsort(-(q / mems), kind="stable").tolist()
                startable = sim.startable_mask.tolist()
                walk = [index for index in order if startable[index]]
                for fill_deadline in (sim.clock + time_of[pivot], time_budget):
                    waiting = []
                    for index in walk:
                        if (
                            mem_of[index] <= sim.free_mem + 1e-9
                            and sim.clock + time_of[index] <= fill_deadline + 1e-9
                        ):
                            sim.start(index)
                        else:
                            waiting.append(index)
                    walk = waiting
            if not sim.heap:
                break
            # Wait for one completion; its output updates the state.
            sim.finish_next()

        # Drain everything still running; recall_by(deadline) discounts
        # executions that finish past the deadline.
        while sim.heap:
            sim.finish_next()
        return sim.trace

    def schedule(
        self,
        truth: GroundTruth,
        item_id: str,
        time_budget: float,
        memory_budget: float,
    ) -> ScheduleTrace:
        if time_budget < 0 or memory_budget < 0:
            raise ValueError("budgets must be non-negative")
        episode = self._episode(truth, item_id, time_budget, memory_budget)
        return run_episode(episode, self.predictor, _areas(truth))

    def schedule_batch(
        self,
        truth: GroundTruth,
        item_ids: Sequence[str],
        time_budget: float,
        memory_budget: float,
    ) -> list[ScheduleTrace]:
        """Algorithm 2 over many items, one stacked prediction per round
        of pivot waves; per-item traces are those of :meth:`schedule`."""
        if time_budget < 0 or memory_budget < 0:
            raise ValueError("budgets must be non-negative")
        episodes = [
            self._episode(truth, item_id, time_budget, memory_budget)
            for item_id in item_ids
        ]
        return run_lockstep(episodes, self.predictor, _areas(truth), "deadline_memory")


class RandomMemoryDeadlineScheduler:
    """Fig. 11 baseline: "randomly selects model that could be packed into
    GPU to execute until the deadline".

    Packing checks memory only (like the paper's random baseline) — the
    last wave of models typically straddles the deadline and contributes
    nothing by it.  Evaluate with ``trace.recall_by(budget)``.
    """

    name = "random_memory_deadline"

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def schedule(
        self,
        truth: GroundTruth,
        item_id: str,
        time_budget: float,
        memory_budget: float,
    ) -> ScheduleTrace:
        sim = _ParallelSim(truth, item_id, memory_budget)
        mems = truth.zoo.mems
        while sim.clock < time_budget:
            while True:
                candidates = sim.startable
                fits = candidates[mems[candidates] <= sim.free_mem + 1e-9]
                if len(fits) == 0:
                    break
                sim.start(int(fits[self._rng.integers(len(fits))]))
            if not sim.heap:
                break
            sim.finish_next()
        while sim.heap:
            sim.finish_next()
        return sim.trace


class RelaxedOptimalMemoryDeadline:
    """Optimal* upper bound for the two-dimension constraint (§V-C).

    Greedy on true marginal gain per unit (time x memory) area with the
    relaxation that the last selected model may contribute a proportional
    fraction of its value.  The relaxation also drops the packing
    feasibility question (any fractional area fits), so this value is an
    upper bound on every feasible parallel schedule's value.
    """

    name = "optimal_star_memory"

    def value(
        self,
        truth: GroundTruth,
        item_id: str,
        time_budget: float,
        memory_budget: float,
    ) -> float:
        # Total resource area available (relaxed packing).
        area_budget = time_budget * memory_budget
        return relaxed_optimal_value(truth, item_id, _areas(truth), area_budget)

    def recall(
        self,
        truth: GroundTruth,
        item_id: str,
        time_budget: float,
        memory_budget: float,
    ) -> float:
        total = truth.total_value(item_id)
        if total <= 0:
            return 1.0
        return self.value(truth, item_id, time_budget, memory_budget) / total
