"""LabelingSpec: the one first-class request/constraint object.

The paper schedules every item under one of three *regimes* — unconstrained
Q-greedy, Algorithm 1 (deadline), Algorithm 2 (deadline + memory).
:class:`LabelingSpec` states a request's regime and constraints as a single
frozen value that every layer shares:

* the **engine** takes ``spec=`` on every labeling call
  (``None`` means the default, unconstrained spec);
* **backends** receive the spec inside the
  :class:`~repro.engine.backends.LabelingJob` and dispatch on
  :attr:`LabelingSpec.regime`;
* the **serving tier** attaches a spec to each request and groups queued
  requests by :attr:`LabelingSpec.batch_key`, so every dispatched
  micro-batch is homogeneous — one service hosts Q-greedy, deadline, and
  deadline+memory traffic concurrently.

The constructor is the only way to state constraints and the only gate
they pass: ``__post_init__`` checks types and ranges eagerly — a string
``priority``, a ``NaN`` or negative ``deadline``, a ``memory_budget``
without a deadline, or a ``max_models`` below 1 raises
:class:`TypeError`/:class:`ValueError` at the API boundary (the gateway
builds specs from untrusted JSON bodies) instead of flowing into the
queue and the schedulers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from numbers import Integral, Real

__all__ = ["REGIMES", "LabelingSpec", "spec_or"]

#: The paper's scheduling regimes, also the legal ``policy`` overrides.
REGIMES = ("qgreedy", "deadline", "deadline_memory")


def _check_budget(name: str, value) -> None:
    """A finite, non-negative, non-bool real number."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    # One chained comparison rejects negatives, NaN (compares False), inf,
    # and ints too large to convert to float.
    if not 0 <= value <= sys.float_info.max:
        raise ValueError(f"{name} must be non-negative and finite")


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")


@dataclass(frozen=True)
class LabelingSpec:
    """Per-request scheduling constraints and service terms.

    Parameters
    ----------
    deadline:
        Serial-time budget in seconds for Algorithm 1 (or the completion
        bound of Algorithm 2 when ``memory_budget`` is also set).
    memory_budget:
        GPU-memory budget in MB; requires ``deadline`` (Algorithm 2).
    max_models:
        Cap on executed models for the unconstrained Q-greedy regime.
    priority:
        Serving-tier dispatch class (higher pops first); ignored outside
        the serving tier and deliberately **not** part of
        :attr:`batch_key` — priorities order admission, they do not change
        scheduling semantics, so mixed-priority requests may share a batch.
    policy:
        Optional regime override (one of :data:`REGIMES`).  By default the
        regime is derived from which constraints are set; ``policy`` pins
        it instead — e.g. ``policy="qgreedy"`` with a ``deadline`` set
        schedules greedily and ignores the deadline entirely (it is
        carried on the spec but excluded from :attr:`batch_key`, and
        serving-tier *admission* deadlines are a separate
        ``submit(deadline=…)`` argument).  A policy that *requires* a
        constraint the spec lacks (``"deadline"`` without a deadline) is
        rejected.
    tenant:
        Serving-tier tenant identity (the gateway sets it from the
        authenticated API key).  Like ``priority`` it never changes
        scheduling semantics, so it is excluded from :attr:`batch_key` —
        but it *is* part of :meth:`cache_key`, so one tenant's cached
        labels are never served to another, and the request queue
        buckets by ``tenant → batch_key`` for cross-tenant fairness.
    """

    deadline: float | None = None
    memory_budget: float | None = None
    max_models: int | None = None
    priority: int = 0
    policy: str | None = None
    tenant: str | None = None

    def __post_init__(self):
        if self.deadline is not None:
            _check_budget("deadline", self.deadline)
        if self.memory_budget is not None:
            _check_budget("memory_budget", self.memory_budget)
            if self.deadline is None:
                raise ValueError("memory_budget requires a deadline")
        if self.max_models is not None:
            _check_integer("max_models", self.max_models)
            if self.max_models < 1:
                raise ValueError("max_models must be >= 1")
        _check_integer("priority", self.priority)
        if self.policy is not None:
            if self.policy not in REGIMES:
                raise ValueError(
                    f"unknown policy {self.policy!r}; choose from {sorted(REGIMES)}"
                )
            if self.policy == "deadline" and self.deadline is None:
                raise ValueError("policy 'deadline' requires a deadline")
            if self.policy == "deadline_memory" and self.memory_budget is None:
                raise ValueError(
                    "policy 'deadline_memory' requires a deadline and a "
                    "memory_budget"
                )

    # -- derived views -------------------------------------------------------

    @property
    def regime(self) -> str:
        """Which scheduling algorithm this spec selects.

        ``policy`` wins when set; otherwise the regime is derived from the
        constraints: ``deadline_memory`` (Algorithm 2) when a memory budget
        is present, ``deadline`` (Algorithm 1) when only a deadline is, and
        ``qgreedy`` otherwise.
        """
        if self.policy is not None:
            return self.policy
        if self.memory_budget is not None:
            return "deadline_memory"
        if self.deadline is not None:
            return "deadline"
        return "qgreedy"

    @property
    def batch_key(self) -> tuple:
        """Hashable grouping key: specs with equal keys may share a batch.

        The key carries the regime plus only the constraints that regime
        actually schedules under, so e.g. two ``qgreedy``-policy specs with
        different (ignored) deadlines still batch together.  ``priority``
        is excluded by design (see class docstring).
        """
        regime = self.regime
        if regime == "deadline_memory":
            return (regime, self.deadline, self.memory_budget)
        if regime == "deadline":
            return (regime, self.deadline)
        return (regime, self.max_models)

    def cache_key(self, item_id: str) -> tuple:
        """Result-cache key for labeling ``item_id`` under this spec.

        A labeling result is a pure function of the item and the
        constraints its regime schedules under — exactly what
        :attr:`batch_key` captures — so two specs that may share a batch
        also share cached results (and ``priority``, which never changes
        scheduling semantics, is excluded along with ignored constraints).
        ``tenant`` *is* part of the key even though it does not change the
        result either: cached labels are tenant-scoped so one tenant's
        traffic can never observe (via latency or payload) what another
        tenant labeled.  Used by
        :class:`~repro.serving.result_cache.ResultCache`.
        """
        return (self.tenant, item_id, self.batch_key)

    # -- construction --------------------------------------------------------

    def with_(self, **changes) -> "LabelingSpec":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)


def spec_or(spec, default: LabelingSpec | None = None) -> LabelingSpec:
    """``spec``, or ``default`` (else the default spec) when omitted.

    The call-time gate of every ``spec=`` parameter: anything that is
    neither ``None`` nor a :class:`LabelingSpec` is a :class:`TypeError`.
    """
    if spec is None:
        return default if default is not None else LabelingSpec()
    if not isinstance(spec, LabelingSpec):
        raise TypeError(f"spec must be a LabelingSpec, got {type(spec).__name__}")
    return spec
