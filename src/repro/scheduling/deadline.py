"""Scheduling under a deadline constraint (Algorithm 1, §V-A).

Single-processor, serial execution, per-item time budget ``Btime``.  The
cost-Q greedy scheduler re-predicts Q values after every execution and
picks the affordable model maximizing ``Q(m | state) / m.time`` — the
cost-profit greedy rule with the DRL prediction standing in for the unknown
profit.

This module also provides the baselines of Fig. 10: the cost-oblivious
Q-greedy — with :class:`~repro.scheduling.random_policy.RandomStepPredictor`
it is the random-under-deadline policy — and the relaxed optimal* upper
bound of §V-C (fractional last model).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.state import LabelingState
from repro.scheduling.base import (
    TOLERANCE,
    Episode,
    ScheduleTrace,
    execute_serially,
    run_episode,
    run_lockstep,
)
from repro.scheduling.optimal import relaxed_optimal_value
from repro.scheduling.qgreedy import QValuePredictor, qgreedy_episode
from repro.zoo.oracle import GroundTruth


class CostQGreedyScheduler:
    """Algorithm 1: cost-Q greedy scheduling under a deadline.

    One algorithm text (:meth:`_episode`), two drivers: :meth:`schedule`
    steps it with one prediction per step — the serial reference —
    and :meth:`schedule_batch` steps many items in lock-step with one
    stacked prediction per round, the path the engine backends use.
    Both select the affordable model maximizing ``Q / time`` (see
    :mod:`repro.scheduling.base` for the episode protocol).
    """

    name = "cost_q_greedy"

    def __init__(self, predictor: QValuePredictor):
        self.predictor = predictor

    def _episode(self, truth: GroundTruth, item_id: str, time_budget: float) -> Episode:
        """Algorithm 1 for one item: execute picks among the unexecuted
        models the remaining budget still admits, until none is left."""
        state = LabelingState(truth, item_id)
        trace = ScheduleTrace(item_id=item_id, total_value=truth.total_value(item_id))
        times = truth.zoo.times
        clock = 0.0
        budget = time_budget
        while budget > 0:
            affordable = ~state.executed & (times <= budget + TOLERANCE)
            if not affordable.any():
                break
            best, _ = yield state, affordable
            clock = execute_serially(state, trace, truth, best, clock)
            budget -= float(times[best])
        return trace

    def schedule(
        self, truth: GroundTruth, item_id: str, time_budget: float
    ) -> ScheduleTrace:
        """Run the predict-filter-select loop until the budget is spent."""
        if time_budget < 0:
            raise ValueError("time_budget must be non-negative")
        episode = self._episode(truth, item_id, time_budget)
        return run_episode(episode, self.predictor, truth.zoo.times)

    def schedule_batch(
        self,
        truth: GroundTruth,
        item_ids: Sequence[str],
        time_budget: float,
    ) -> list[ScheduleTrace]:
        """Algorithm 1 over many items, one stacked prediction per round;
        per-item traces are those of :meth:`schedule`."""
        if time_budget < 0:
            raise ValueError("time_budget must be non-negative")
        episodes = [self._episode(truth, item_id, time_budget) for item_id in item_ids]
        return run_lockstep(episodes, self.predictor, truth.zoo.times, "deadline")


class QGreedyDeadlineScheduler:
    """Fig. 10's "Q Greedy": max-Q selection until the deadline.

    Cost-oblivious — it may start a model that cannot finish within the
    budget, in which case the execution is wasted (its value does not count
    by the deadline), exactly the failure mode Algorithm 1 avoids.  With a
    :class:`~repro.scheduling.random_policy.RandomStepPredictor` it is the
    paper's random baseline, "randomly selects model until the deadline".
    Evaluate with ``trace.recall_by(budget)``.
    """

    name = "q_greedy_deadline"

    def __init__(self, predictor: QValuePredictor):
        self.predictor = predictor

    def schedule(
        self, truth: GroundTruth, item_id: str, time_budget: float
    ) -> ScheduleTrace:
        episode = qgreedy_episode(truth, item_id, deadline=time_budget)
        return run_episode(episode, self.predictor, 1.0)


class RelaxedOptimalDeadline:
    """The optimal* upper bound of §V-C for the deadline constraint.

    Greedy on the true marginal gain per unit time; when the remaining
    budget cannot fit the selected model, the model still contributes the
    corresponding *proportion* of its marginal value (relaxation), after
    which scheduling stops.  The returned value upper-bounds every exact
    policy's value, so `ours / optimal*` lower-bounds the true ratio.
    """

    name = "optimal_star_deadline"

    def value(self, truth: GroundTruth, item_id: str, time_budget: float) -> float:
        return relaxed_optimal_value(truth, item_id, truth.zoo.times, time_budget)

    def recall(self, truth: GroundTruth, item_id: str, time_budget: float) -> float:
        total = truth.total_value(item_id)
        if total <= 0:
            return 1.0
        return self.value(truth, item_id, time_budget) / total
