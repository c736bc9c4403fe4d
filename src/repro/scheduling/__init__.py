"""Scheduling policies and algorithms (Section V + baselines of Section VI).

One selection rule, many predictors (the paper's Fig. 3):

* **Episodes** — Q-greedy (:func:`~repro.scheduling.qgreedy.qgreedy_episode`,
  optionally stopped by a cost-oblivious deadline), Algorithm 1 (deadline)
  and Algorithm 2 (deadline+memory), each written once and run by the two
  drivers of :mod:`repro.scheduling.base`.
* **Predictors** — the trained agent, and the baselines: random order,
  a random step, the optimal solo-value order and the Table II rules.
  Every serial baseline is Q-greedy on its predictor; the analysis layer
  reads cost-to-recall off the trace (Figs. 2, 4-9) or recall by a
  deadline (Figs. 10-12).
* **Bounds and specials** — the relaxed optimal* values of §V-C, the
  random memory-packing baseline of Fig. 11 and the explore-exploit policy
  for chunked streams.
"""

from repro.scheduling.base import ScheduledExecution, ScheduleTrace
from repro.scheduling.deadline import (
    CostQGreedyScheduler,
    QGreedyDeadlineScheduler,
    RelaxedOptimalDeadline,
)
from repro.scheduling.deadline_memory import (
    MemoryDeadlineScheduler,
    RandomMemoryDeadlineScheduler,
    RelaxedOptimalMemoryDeadline,
)
from repro.scheduling.explore_exploit import ExploreExploitPolicy
from repro.scheduling.optimal import SoloValuePredictor
from repro.scheduling.qgreedy import QGreedyPolicy, QValuePredictor
from repro.scheduling.random_policy import RandomOrderPredictor, RandomStepPredictor
from repro.scheduling.rules import HANDCRAFTED_RULES, Rule, RulePredictor

__all__ = [
    "ScheduledExecution",
    "ScheduleTrace",
    "CostQGreedyScheduler",
    "QGreedyDeadlineScheduler",
    "RelaxedOptimalDeadline",
    "MemoryDeadlineScheduler",
    "RandomMemoryDeadlineScheduler",
    "RelaxedOptimalMemoryDeadline",
    "ExploreExploitPolicy",
    "SoloValuePredictor",
    "QGreedyPolicy",
    "QValuePredictor",
    "RandomOrderPredictor",
    "RandomStepPredictor",
    "HANDCRAFTED_RULES",
    "Rule",
    "RulePredictor",
]
