"""The labeling state: the DRL agent's environment observation (§IV).

The state is an ``n``-dimensional binary vector (``n = |L(M)|``) whose i-th
bit records whether label i has been output (at valuable confidence) by any
executed model.  :class:`LabelingState` also tracks which models were
executed, the running value of the output set, and a ``revision`` that
moves exactly when the vector does — bookkeeping every scheduling policy needs.
"""

from __future__ import annotations

import numpy as np

from repro.zoo.oracle import GroundTruth


class LabelingState:
    """Mutable per-item labeling state shared by env and schedulers.

    Value semantics follow Eq. (1) with the label profit ``p_i`` equal to
    the best confidence at which label i has been emitted so far; re-emitting
    a label at higher confidence contributes only the improvement, which
    keeps the accumulated value monotone and submodular.
    """

    def __init__(self, truth: GroundTruth, item_id: str):
        self.truth = truth
        self.item_id = item_id
        self._bits = np.zeros(len(truth.zoo.space), dtype=np.float32)
        self._conf = np.zeros(self._bits.shape, dtype=np.float64)
        self.executed = np.zeros(len(truth.zoo), dtype=bool)
        self.value = 0.0
        self.revision = 0  # bumped exactly when ``vector`` gains a bit

    # -- views ---------------------------------------------------------------

    @property
    def vector(self) -> np.ndarray:
        """The binary observation vector (do not mutate)."""
        return self._bits

    @property
    def confidences(self) -> np.ndarray:
        """Best confidence per label so far (do not mutate)."""
        return self._conf

    @property
    def remaining(self) -> np.ndarray:
        """Indices of models not yet executed."""
        return np.nonzero(~self.executed)[0]

    @property
    def all_executed(self) -> bool:
        return bool(self.executed.all())

    @property
    def recall(self) -> float:
        """Recall rate of true output value accumulated so far."""
        total = self.truth.total_value(self.item_id)
        return self.value / total if total > 0 else 1.0

    # -- transitions -----------------------------------------------------------

    def execute(self, model_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Execute one model; returns its (new_ids, new_confs) contribution.

        "New" follows the paper's ``O'(m, d)``: labels (or confidence
        improvements) not already provided by previously executed models.
        Raises if the model was already executed — schedulers must not
        re-run models.
        """
        if self.executed[model_index]:
            raise ValueError(
                f"model index {model_index} already executed on {self.item_id}"
            )
        self.executed[model_index] = True
        ids, confs = self.truth.valuable(self.item_id, model_index)
        if len(ids) == 0:
            return ids, confs
        gains = np.maximum(confs - self._conf[ids], 0.0)
        new_mask = gains > 0.0
        np.maximum.at(self._conf, ids, confs)
        if not self._bits[ids].all():
            self._bits[ids] = 1.0
            self.revision += 1
        self.value += float(gains.sum())
        return ids[new_mask], confs[new_mask]
