"""The paper's selection rules, stated once, independently of both drivers.

:func:`check_trace` takes a finished :class:`ScheduleTrace` and asserts it
is what the regime's rule prescribes, step by step, by replaying it on a
fresh :class:`LabelingState`.  It shares no code with
``src/repro/scheduling/`` — selections are re-derived with plain loops —
so a defect mirrored in the serial and the lock-step driver (which trace
*parity* cannot see) still fails here.

* **Q-greedy** — every executed model is the first-index argmax of ``Q``
  over the unexecuted models; the run stops at ``max_models`` or when the
  zoo is exhausted.
* **Algorithm 1** — every executed model is the first-index argmax of
  ``Q / time`` over the unexecuted models with ``time <= remaining +
  1e-9``; the run stops only when nothing is admissible.
* **Algorithm 2** — starts happen in *waves* at ``t = 0`` and at
  completion instants before the deadline; memory in use never exceeds the
  budget; every start finishes by the deadline; and when an instant's
  waves are over no startable model still fits.  A wave is its pivot — the
  first-index argmax of ``Q / (time * mem)`` over the models that fit free
  memory and the deadline at that instant — plus two fill passes of
  first-index ``Q / mem`` argmaxes over what still fits memory and
  finishes by the pivot's finish, then by the deadline.  Two completions
  at one instant are two waves a trace cannot tell apart, so only
  feasibility and the final no-idle-fit are checked there.

In the two serial regimes start/finish times must chain.  In all three
the replay re-derives Eq. (1) itself, from a best-confidence dict built
out of ``truth.valuable`` and never through :class:`LabelingState`: each
execution's ``marginal_value`` is the sum of its confidence improvements
and ``new_labels`` their count, the replayed state's label vector is the
union of the executed models' valuable labels, and its ``revision`` moves
exactly when that union grows.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.state import LabelingState

EPS = 1e-9


def check_trace(truth, predictor, spec, trace) -> None:
    """Assert ``trace`` obeys the rule of ``spec.regime`` (see module doc)."""
    assert trace.total_value == truth.total_value(trace.item_id)
    indices = [e.model_index for e in trace.executions]
    assert len(set(indices)) == len(indices), "a model ran twice"
    if spec.regime == "deadline_memory":
        _check_waves(truth, predictor, spec, trace)
    else:
        _check_serial(truth, predictor, spec, trace)


def _first_best(scores, candidates):
    """First candidate (ascending index) with the maximal score."""
    best = None
    for j in candidates:
        if best is None or scores[j] > scores[best]:
            best = j
    return best


def _replay(state, best, execution) -> None:
    """Execute on the replay state, and judge the trace's deltas and the
    state's vector and revision by Eq. (1) over ``best`` (label id -> best
    confidence so far), which only this replay updates."""
    j = execution.model_index
    assert execution.model_name == state.truth.zoo[j].name
    ids, confs = state.truth.valuable(state.item_id, j)
    pairs = list(zip(ids.tolist(), confs.tolist()))
    gains = [max(conf - best.get(i, 0.0), 0.0) for i, conf in pairs]
    grew = any(i not in best for i, _ in pairs)
    for i, conf in pairs:
        best[i] = max(best.get(i, 0.0), conf)
    revision = state.revision
    state.execute(j)
    assert abs(execution.marginal_value - sum(gains)) <= 1e-12
    assert execution.new_labels == sum(gain > 0.0 for gain in gains)
    assert set(np.flatnonzero(state.vector).tolist()) == set(best)
    assert (state.revision != revision) == grew


def _check_serial(truth, predictor, spec, trace) -> None:
    zoo = truth.zoo
    times = [float(t) for t in zoo.times]
    timed = spec.regime == "deadline"
    limit = len(zoo) if timed or spec.max_models is None else spec.max_models
    remaining = spec.deadline if timed else float("inf")
    state, best = LabelingState(truth, trace.item_id), {}
    clock = 0.0

    def admissible():
        if timed and not remaining > 0:
            return []
        return [
            j
            for j in range(len(zoo))
            if not state.executed[j] and times[j] <= remaining + EPS
        ]

    assert len(trace.executions) <= limit
    for execution in trace.executions:
        q = predictor.predict(state)
        scores = [q[j] / times[j] if timed else q[j] for j in range(len(zoo))]
        assert execution.model_index == _first_best(scores, admissible())
        assert execution.start_time == clock
        assert execution.finish_time == clock + times[execution.model_index]
        _replay(state, best, execution)
        clock = execution.finish_time
        remaining -= times[execution.model_index]
    if len(trace.executions) < limit:
        assert not admissible(), "stopped while a model was still admissible"


def _check_waves(truth, predictor, spec, trace) -> None:
    zoo = truth.zoo
    n = len(zoo)
    times = [float(t) for t in zoo.times]
    mems = [float(m) for m in zoo.mems]
    deadline, budget = spec.deadline, spec.memory_budget
    executions = trace.executions
    finishes = [e.finish_time for e in executions]
    assert finishes == sorted(finishes), "completions out of order"
    waves = defaultdict(list)
    for e in executions:
        assert e.finish_time == e.start_time + times[e.model_index]
        assert e.start_time < deadline, "started at or after the deadline"
        assert e.finish_time <= deadline + EPS, "cannot finish by the deadline"
        waves[e.start_time].append(e.model_index)
    instants = [0.0] + sorted(set(finishes))
    assert set(waves) <= set(instants), "a start outside t=0 / a completion"

    state, best = LabelingState(truth, trace.item_id), {}
    done = 0
    for t in instants:
        completed_here = 0
        while done < len(executions) and executions[done].finish_time == t:
            _replay(state, best, executions[done])
            done += 1
            completed_here += 1
        if not t < deadline:
            continue
        wave = waves.get(t, [])
        running = [
            e.model_index for e in executions if e.start_time < t < e.finish_time
        ]
        free = budget - sum(mems[j] for j in running)
        startable = [j for j in range(n) if not state.executed[j] and j not in running]

        if completed_here <= 1:  # one wave: the rule decides it fully
            q = predictor.predict(state)
            by_area = [q[j] / (times[j] * mems[j]) for j in range(n)]
            by_mem = [q[j] / mems[j] for j in range(n)]
            expected, left = [], free

            def open_for(limit):
                return [
                    j
                    for j in startable
                    if j not in expected
                    and mems[j] <= left + EPS
                    and t + times[j] <= limit + EPS
                ]

            pivot = _first_best(by_area, open_for(deadline))
            if pivot is not None:
                expected.append(pivot)
                left -= mems[pivot]
                for limit in (t + times[pivot], deadline):
                    while (j := _first_best(by_mem, open_for(limit))) is not None:
                        expected.append(j)
                        left -= mems[j]
            assert sorted(wave) == sorted(expected), f"wrong wave at t={t}"
        assert set(wave) <= set(startable)
        free -= sum(mems[j] for j in wave)
        assert free >= -EPS, f"memory budget exceeded at t={t}"
        idle = [
            j
            for j in startable
            if j not in wave
            and mems[j] <= free + EPS
            and t + times[j] <= deadline + EPS
        ]
        assert not idle, f"models {idle} still fit when the wave at t={t} ended"
    assert done == len(executions)
