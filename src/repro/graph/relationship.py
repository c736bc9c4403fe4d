"""Construction of the model-relationship graph from recorded executions.

For every ordered model pair ``(i, j)`` we estimate, over a training
corpus:

* ``P(j useful)`` — the base rate that model ``j`` emits valuable labels;
* ``P(j useful | i useful)`` — conditioned on model ``i`` having been
  useful on the same item;
* the **lift** ``P(j|i) / P(j)`` — how much evidence model ``i``'s success
  carries about model ``j``.

Edges with lift far from 1 are exactly the relationships the paper's
Table II hand-writes ("person => pose estimation") and its DRL agent
learns implicitly; here they are estimated in one cheap counting pass
(the "fast method to construct this" the paper calls for).

The graph is materialized as a :class:`networkx.DiGraph` for inspection
and export; scheduling uses the dense arrays directly.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.zoo.oracle import GroundTruth


@dataclass
class ModelRelationshipGraph:
    """Empirical usefulness statistics over a model zoo.

    Attributes
    ----------
    model_names:
        Zoo-ordered model names (node labels).
    base_rate:
        ``P(model useful)`` per model.
    cond_useful:
        ``cond_useful[i, j] = P(j useful | i useful)``.
    cond_useless:
        ``cond_useless[i, j] = P(j useful | i not useful)``.
    support:
        Number of items the statistics were estimated from.
    """

    model_names: tuple[str, ...]
    base_rate: np.ndarray
    cond_useful: np.ndarray
    cond_useless: np.ndarray
    support: int

    @property
    def n_models(self) -> int:
        return len(self.model_names)

    def lift(self, i: int, j: int) -> float:
        """Lift of j's usefulness given i was useful (1.0 = independent)."""
        base = self.base_rate[j]
        if base <= 0:
            return 1.0
        return float(self.cond_useful[i, j] / base)

    def to_networkx(self, min_lift_ratio: float = 1.5) -> nx.DiGraph:
        """Export edges whose lift deviates from 1 by ``min_lift_ratio``.

        An edge ``i -> j`` is kept when ``lift >= min_lift_ratio`` (promote)
        or ``lift <= 1/min_lift_ratio`` (demote), mirroring Table II's 2x /
        0.5x factors.
        """
        if min_lift_ratio < 1.0:
            raise ValueError("min_lift_ratio must be >= 1")
        graph = nx.DiGraph()
        for i, name in enumerate(self.model_names):
            graph.add_node(name, base_rate=float(self.base_rate[i]))
        for i in range(self.n_models):
            for j in range(self.n_models):
                if i == j:
                    continue
                lift = self.lift(i, j)
                if lift >= min_lift_ratio or (
                    lift > 0 and lift <= 1.0 / min_lift_ratio
                ):
                    graph.add_edge(
                        self.model_names[i],
                        self.model_names[j],
                        lift=float(lift),
                        conditional=float(self.cond_useful[i, j]),
                    )
        return graph

    def strongest_edges(self, k: int = 10) -> list[tuple[str, str, float]]:
        """Top-k (source, target, lift) promote edges — the learned Table II."""
        edges = []
        for i in range(self.n_models):
            for j in range(self.n_models):
                if i != j:
                    edges.append(
                        (self.model_names[i], self.model_names[j], self.lift(i, j))
                    )
        edges.sort(key=lambda e: -e[2])
        return edges[:k]

    def expected_usefulness(
        self, executed_useful: Iterable[int], executed_useless: Iterable[int]
    ) -> np.ndarray:
        """Posterior usefulness estimate per model given observed evidence.

        A naive-Bayes-flavoured pool: the geometric mean of the conditional
        rates contributed by each piece of evidence, falling back to the
        base rate with no evidence.  Cheap, order-independent, and good
        enough to rank models (see :class:`~repro.graph.policy.GraphPredictor`).
        """
        useful = list(executed_useful)
        useless = list(executed_useless)
        if not useful and not useless:
            return self.base_rate.copy()
        logs = np.zeros(self.n_models, dtype=np.float64)
        count = 0
        eps = 1e-6
        for i in useful:
            logs += np.log(np.clip(self.cond_useful[i], eps, 1.0))
            count += 1
        for i in useless:
            logs += np.log(np.clip(self.cond_useless[i], eps, 1.0))
            count += 1
        return np.exp(logs / count)


def build_relationship_graph(
    truth: GroundTruth, item_ids: Iterable[str] | None = None
) -> ModelRelationshipGraph:
    """One counting pass over recorded executions -> relationship graph.

    Runs in ``O(items * models^2)`` with plain array ops — the "fast
    construction" answer to the paper's future-work question.
    """
    ids = list(item_ids if item_ids is not None else truth.item_ids)
    if not ids:
        raise ValueError("need at least one item to estimate the graph")
    n = len(truth.zoo)
    useful_matrix = np.zeros((len(ids), n), dtype=bool)
    for row, item_id in enumerate(ids):
        useful_matrix[row] = truth.record(item_id).useful_models

    counts = useful_matrix.sum(axis=0).astype(np.float64)
    base = counts / len(ids)

    # joint[i, j] = #items where both i and j were useful
    joint = (useful_matrix.T.astype(np.float64)) @ useful_matrix.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_useful = np.where(counts[:, None] > 0, joint / counts[:, None], base)
    anti_counts = len(ids) - counts
    anti_joint = (~useful_matrix).T.astype(np.float64) @ useful_matrix.astype(
        np.float64
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_useless = np.where(
            anti_counts[:, None] > 0, anti_joint / anti_counts[:, None], base
        )

    return ModelRelationshipGraph(
        model_names=truth.zoo.names,
        base_rate=base,
        cond_useful=cond_useful,
        cond_useless=cond_useless,
        support=len(ids),
    )
