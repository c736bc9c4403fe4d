"""Columnar zoo recording: one walk over a batch, straight into arrays.

The paper's protocol executes every model on every item once and then
schedules against the record (§II, §VI-A).  :func:`record_items` is that
execution: it walks a batch of items once (seeded in one pass by
:func:`~repro.zoo.model.emit_batch`), lets each zoo member append its
emissions to two flat lists, and freezes them into an
:class:`ItemRecord` — three columns and a mask per item instead of one
``ModelOutput``/``LabelOutput`` object graph per ``(model, item)``.

Everything else a scheduler, an oracle baseline or a transport reads is a
view of those columns or derived from them on first read; nothing is
computed for a consumer that never asks.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import pairwise

import numpy as np

from repro.zoo.output import LabelOutput
from repro.data.datasets import DataItem
from repro.zoo.model import ModelZoo, emit_batch


@dataclass(frozen=True, eq=False)
class ItemRecord:
    """Recorded zoo execution for one item.

    ``ids``/``confs`` hold every emission of every model — zoo order
    across models, emission order within one — and model ``j`` owns the
    slice ``offsets[j]:offsets[j + 1]``.  ``valuable`` marks the
    emissions at or above the world's confidence threshold; the junk of
    the paper's Fig. 1 stays in the columns but out of every value.

    The remaining attributes are derived on first read and then cached on
    the instance (they never travel in a pickle).
    """

    item: DataItem
    #: ``int64[n_models + 1]`` slice bounds into ``ids``/``confs``.
    offsets: np.ndarray
    #: ``int64[n]`` global label ids.
    ids: np.ndarray
    #: ``float64[n]`` confidences.
    confs: np.ndarray
    #: ``bool[n]``: confidence >= the valuable threshold.
    valuable: np.ndarray
    #: Size of the label space the ids index (``|L(M)|``).
    n_labels: int

    @classmethod
    def from_emissions(
        cls, item: DataItem, offsets, ids, confs, threshold: float, n_labels: int
    ) -> ItemRecord:
        """Freeze per-model emission slices into a record."""
        confs = np.asarray(confs, dtype=np.float64)
        return cls(
            item=item,
            offsets=np.asarray(offsets, dtype=np.int64),
            ids=np.asarray(ids, dtype=np.int64),
            confs=confs,
            valuable=confs >= threshold,
            n_labels=n_labels,
        )

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def n_models(self) -> int:
        return len(self.offsets) - 1

    def emissions(self, model_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, confs) of everything one model emitted, junk included."""
        start, stop = self.offsets[model_index : model_index + 2]
        return self.ids[start:stop], self.confs[start:stop]

    # -- derived on first read -------------------------------------------------

    @cached_property
    def valuable_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(offsets, ids, confs) restricted to the valuable emissions.

        The scheduling surface: what value accounting reads and what the
        shm and cluster transports ship.
        """
        mask = self.valuable
        if mask.all():
            return self.offsets, self.ids, self.confs
        kept = np.zeros(len(mask) + 1, dtype=np.int64)
        np.cumsum(mask, out=kept[1:])
        return kept[self.offsets], self.ids[mask], self.confs[mask]

    @cached_property
    def valuable_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per-model ``(ids, confs)`` views of the valuable emissions."""
        offsets, ids, confs = self.valuable_columns
        return tuple((ids[a:b], confs[a:b]) for a, b in pairwise(offsets.tolist()))

    @cached_property
    def valuable_labels(self) -> dict[int, tuple[LabelOutput, ...]]:
        """Named valuable labels per model index.

        Filled by :meth:`GroundTruth.valuable_labels` (naming needs the
        zoo) for the models a result actually reads back.
        """
        return {}

    @cached_property
    def solo_values(self) -> np.ndarray:
        """Solo value of each model: sum of its valuable confidences."""
        solo = np.zeros(self.n_models, dtype=np.float64)
        for j, (_, confs) in enumerate(self.valuable_pairs):
            if len(confs):
                solo[j] = confs.sum()
        solo.flags.writeable = False
        return solo

    def _best(self) -> np.ndarray:
        _, ids, confs = self.valuable_columns
        best = np.zeros(self.n_labels, dtype=np.float64)
        np.maximum.at(best, ids, confs)
        return best

    @cached_property
    def best_confidence(self) -> np.ndarray:
        """Best achievable confidence per label over the whole zoo (dense)."""
        best = self._best()
        best.flags.writeable = False
        return best

    @cached_property
    def total_value(self) -> float:
        """f(M, d): total achievable value (Eq. 1's max-confidence union)."""
        return float(self._best().sum())

    @property
    def useful_models(self) -> np.ndarray:
        """Boolean mask over models: emits at least one valuable label."""
        return self.solo_values > 0.0


def record_items(
    zoo: ModelZoo, items: Iterable[DataItem], threshold: float
) -> list[ItemRecord]:
    """Execute the whole zoo on every item once; one record per item."""
    n_labels = len(zoo.space)
    return [
        ItemRecord.from_emissions(item, offsets, ids, confs, threshold, n_labels)
        for item, offsets, ids, confs in emit_batch(zoo.models, zoo.salts, items)
    ]
