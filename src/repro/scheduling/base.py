"""Trace containers and the episode drivers.

A :class:`ScheduleTrace` is one item's execution history; the analysis
layer reads every Fig. 4/5-style metric off it: models and time needed to
reach any recall threshold, recall by a deadline.

The episode protocol
--------------------
Each engine regime (Q-greedy, Algorithm 1, Algorithm 2) states its
algorithm **once**, as a per-item generator — an *episode* — and the two
drivers below run it: :func:`run_episode` one item at a time (what
``schedule()`` and ``SerialBackend`` do), :func:`run_lockstep` many items
per round, one stacked forward over the rows whose observation changed
(what ``schedule_batch()`` and ``BatchedBackend`` do).

* The **episode** owns everything about its item: the
  :class:`~repro.core.state.LabelingState`, the trace, clocks and budgets,
  the stop conditions and every execution.  Whenever it can start a model
  it *yields* ``(state, mask)`` — ``mask`` the non-empty boolean vector of
  models it may start now — and is *sent* ``(pick, q)`` back: the chosen
  model index (always inside the mask) and that item's row of predicted Q
  values (Algorithm 2's fill passes reuse it).  When nothing more can
  start it *returns* its finished :class:`ScheduleTrace`.
* The **driver** owns prediction and selection only: it asks the
  predictor for Q on the yielded states and answers each with
  :func:`best_ratio` — the first-index ``argmax`` of ``Q / cost`` over the
  mask, ``cost`` being the regime's constant (``1``, ``times``,
  ``times × mems``).  It never touches a budget, so an item cannot be
  predicted for once it can start nothing, and rows cannot be misaligned
  with items: each item's control flow is its own generator.

A *round* is therefore one iteration of the loop in each driver.

Every serial baseline is a predictor on the Q-greedy episode: random
order, the optimal solo-value order and the Table II rules differ from
the agent only in what ``predict`` returns, as in the paper's framework
(Fig. 3).

Training (:func:`repro.rl.training.train_agent`) plays the Q-greedy episode
with the agent's epsilon-greedy actions in place of :func:`best_ratio`.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.state import LabelingState
from repro.obs.instrument import batch_observer
from repro.zoo.oracle import GroundTruth

if TYPE_CHECKING:
    from repro.scheduling.qgreedy import QValuePredictor

#: Absolute tolerance for float comparisons on accumulated times/values.
#: Finish times and cumulative values are sums of float costs, so exact
#: boundary hits (a deadline equal to a finish time, a recall threshold met
#: exactly at an execution) must not be lost to representation error.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class ScheduledExecution:
    """One model execution inside a trace."""

    model_index: int
    model_name: str
    start_time: float
    finish_time: float
    #: Marginal value realized by this execution (Eq. 1 accounting).
    marginal_value: float
    #: Number of new valuable labels contributed.
    new_labels: int

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time


@dataclass
class ScheduleTrace:
    """The full execution history of one policy on one item."""

    item_id: str
    total_value: float
    executions: list[ScheduledExecution] = field(default_factory=list)

    @property
    def n_executed(self) -> int:
        return len(self.executions)

    @property
    def value_obtained(self) -> float:
        return sum(e.marginal_value for e in self.executions)

    @property
    def makespan(self) -> float:
        """Completion time of the last execution."""
        return max((e.finish_time for e in self.executions), default=0.0)

    @property
    def serial_time(self) -> float:
        """Total model-seconds consumed (equals makespan when serial)."""
        return sum(e.duration for e in self.executions)

    @property
    def recall(self) -> float:
        if self.total_value <= 0:
            return 1.0
        return self.value_obtained / self.total_value

    def value_by(self, deadline: float) -> float:
        """Value of executions that *finish* by ``deadline``."""
        return sum(
            e.marginal_value
            for e in self.executions
            if e.finish_time <= deadline + TOLERANCE
        )

    def recall_by(self, deadline: float) -> float:
        if self.total_value <= 0:
            return 1.0
        return self.value_by(deadline) / self.total_value

    def cost_to_recall(self, threshold: float) -> tuple[float, float]:
        """(n models, time) needed to reach a recall threshold.

        Mirrors the paper's stop condition: the policy executes models in
        its order until the recalled value reaches ``threshold`` of the
        item's total value (the stop check uses ground truth, §VI-B).  If
        the threshold is unreachable (never happens for full traces) the
        full trace cost is returned.
        """
        target = threshold * self.total_value - TOLERANCE
        running = 0.0
        for k, execution in enumerate(self.executions, start=1):
            running += execution.marginal_value
            if running >= target:
                return float(k), execution.finish_time
        return float(len(self.executions)), self.makespan


def execute_serially(
    state: LabelingState,
    trace: ScheduleTrace,
    truth: GroundTruth,
    model_index: int,
    clock: float,
) -> float:
    """Execute one model at ``clock`` with serial timing; returns new clock.

    Shared by the ordering-policy runner, Algorithm 1, and the engine
    backends so all serial execution paths record byte-identical traces.
    """
    before = state.value
    _, new_confs = state.execute(model_index)
    model = truth.zoo[model_index]
    finish = clock + model.time
    trace.executions.append(
        ScheduledExecution(
            model_index=model_index,
            model_name=model.name,
            start_time=clock,
            finish_time=finish,
            marginal_value=state.value - before,
            new_labels=len(new_confs),
        )
    )
    return finish


#: One item's algorithm: yields ``(state, startable mask)``, is sent
#: ``(pick, q row)``, returns its trace (see the module docstring).
Episode = Generator[
    tuple[LabelingState, np.ndarray], tuple[int, np.ndarray], ScheduleTrace
]


def best_ratio(q: np.ndarray, mask: np.ndarray, cost) -> np.ndarray:
    """First-index ``argmax`` of ``q / cost`` over ``mask``, along the last axis.

    The paper's one selection rule, for a single ``(n,)`` row or a stacked
    ``(B, n)`` matrix alike; the same elementwise division either way, so
    a row selects identically alone and in a batch.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.argmax(np.where(mask, q / cost, -np.inf), axis=-1)


def advance(episode: Episode, reply=None):
    """Resume ``episode``: ``(its next request, None)`` or ``(None, trace)``."""
    try:
        return episode.send(reply), None
    except StopIteration as finished:
        return None, finished.value


def run_episode(episode: Episode, predictor: "QValuePredictor", cost) -> ScheduleTrace:
    """Drive one episode to its trace: one ``predict`` per step."""
    request, trace = advance(episode)
    while request is not None:
        state, mask = request
        q = predictor.predict(state)
        request, trace = advance(episode, (int(best_ratio(q, mask, cost)), q))
    return trace


def run_lockstep(
    episodes: list[Episode], predictor: "QValuePredictor", cost, regime: str
) -> list[ScheduleTrace]:
    """Drive many episodes together: one ``predict_batch`` per round over
    the rows whose observation changed.

    Every round stacks the Q rows of the episodes still waiting on a pick
    (in item order), selects once for all rows, and resumes each episode
    with its own pick and Q row; an ``observation_only`` predictor's row is
    reused until the state's ``revision`` moves.  ``regime`` labels the
    ``repro_sched_*`` series when obs instrumentation is installed; the
    bare path pays one branch per round and no timing calls.
    """
    traces: list[ScheduleTrace | None] = [None] * len(episodes)
    observer = batch_observer(regime, len(episodes))
    # Per slot: its last forwarded Q row and the revision it read (-1: stale).
    rows, seen = None, [-1] * len(episodes)
    waiting = []
    for slot, episode in enumerate(episodes):
        request, traces[slot] = advance(episode)
        if request is not None:
            waiting.append((slot, *request))
    while waiting:
        if observer is not None:
            tick_started = perf_counter()
        stale = [(s, st) for s, st, _ in waiting if seen[s] != st.revision]
        if stale:
            fresh = predictor.predict_batch([state for _, state in stale])
            if rows is None:
                rows = np.empty((len(episodes), fresh.shape[1]), fresh.dtype)
            rows[[slot for slot, _ in stale]] = fresh
            for slot, state in stale:
                seen[slot] = state.revision if predictor.observation_only else -1
        q_batch = rows[[slot for slot, _, _ in waiting]]
        picks = best_ratio(q_batch, np.stack([mask for *_, mask in waiting]), cost)
        resumed = []
        for (slot, _, _), pick, q in zip(waiting, picks.tolist(), q_batch):
            request, traces[slot] = advance(episodes[slot], (pick, q))
            if request is not None:
                resumed.append((slot, *request))
        waiting = resumed
        if observer is not None:
            observer.tick(perf_counter() - tick_started)
    if observer is not None:
        observer.done(sum(len(trace.executions) for trace in traces))
    return traces
