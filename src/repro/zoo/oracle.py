"""Ground-truth cache: record-then-replay evaluation protocol.

The paper executes all 30 models on every image once, stores the outputs,
and then *simulates* every scheduling policy against the recorded outputs
and recorded per-model costs (§II, §VI-A).  :class:`GroundTruth` is that
store: one columnar :class:`~repro.zoo.record.ItemRecord` per item,
written by :func:`~repro.zoo.record.record_items` in one walk per batch.
From a record's columns it serves

* each model's full output (labels + confidences),
* each model's *valuable* labels (confidence >= threshold) as id/conf
  arrays for fast value accounting,
* the total achievable value ``f(M, d)`` under the max-confidence union
  semantics of Eq. (1).

Scheduling policies and the RL environment query this cache instead of
"running" models, so policy evaluation is deterministic and cheap.

The cache also decides when a record the labeling engine recorded may be
freed.  Each engine job holds its items while it runs
(:meth:`~GroundTruth.hold`) and lets go of them after
(:meth:`~GroundTruth.unhold`); a record is freed once no job holds it.
Records a caller put in carry no hold and are never freed this way.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence

import numpy as np

from repro.config import WorldConfig
from repro.core.output import LabelOutput, ModelOutput, named_labels
from repro.data.datasets import DataItem
from repro.zoo.model import ModelZoo
from repro.zoo.record import ItemRecord, record_items

__all__ = ["GroundTruth", "ItemRecord"]


class GroundTruth:
    """Recorded outputs of the full zoo over a collection of items."""

    def __init__(
        self,
        zoo: ModelZoo,
        items: Iterable[DataItem],
        config: WorldConfig | None = None,
    ):
        self.zoo = zoo
        self.config = config or WorldConfig()
        self.threshold = self.config.valuable_confidence
        self._records: dict[str, ItemRecord] = {}
        #: item_id -> holds of running jobs; records absent here are the caller's.
        self._holds: dict[str, int] = {}
        self._lock = threading.Lock()
        self.add_items(items)

    # -- construction --------------------------------------------------------

    def add_items(self, items: Iterable[DataItem]) -> list[str]:
        """Execute-and-record the zoo on new items (idempotent per item).

        Records put in here carry no hold, so :meth:`unhold` never frees
        them.  Returns the ids of items actually recorded by this call.
        """
        fresh: dict[str, DataItem] = {}
        for item in items:
            if item.item_id not in self._records:
                fresh.setdefault(item.item_id, item)
        for record in record_items(self.zoo, fresh.values(), self.threshold):
            self._records[record.item.item_id] = record
        return list(fresh)

    def record_batch(self, items: Sequence[DataItem]) -> list[ItemRecord]:
        """Record a batch of items and return their records, input-ordered.

        Existing records are reused; missing ones are executed-and-recorded
        in one pass.  :meth:`hold` makes exactly one call per scheduling
        batch, so an override sees each engine batch once.
        """
        self.add_items(items)
        return [self._records[item.item_id] for item in items]

    def adopt(self, records: Iterable[ItemRecord]) -> list[str]:
        """Install pre-computed records without executing any model.

        This is the pickling surface behind multi-process scheduling: a
        parent process records items once, ships the :class:`ItemRecord`
        shards to workers, and each worker adopts them into its own cache
        (idempotent per item id, like :meth:`add_items`).  Records must
        have been produced against a zoo of the same size; value semantics
        additionally assume the same valuable-confidence threshold, which
        holds whenever parent and worker share a ``WorldConfig``.

        Adopted records carry no hold, so :meth:`unhold` never frees them.
        Returns the ids actually adopted by this call, so a worker can
        :meth:`release_many` exactly what it introduced.
        """
        added: list[str] = []
        for record in records:
            item_id = record.item.item_id
            if item_id in self._records:
                continue
            if record.n_models != len(self.zoo):
                raise ValueError(
                    f"record for {item_id!r} covers {record.n_models} "
                    f"models but the zoo has {len(self.zoo)}"
                )
            self._records[item_id] = record
            added.append(item_id)
        return added

    def records_snapshot(self) -> tuple[ItemRecord, ...]:
        """The current records as an immutable (picklable) tuple.

        Copied under the lock :meth:`hold` and :meth:`unhold` take, so the
        serving tier can snapshot a shared truth while its worker threads
        record and free.  Records are immutable, so the copy is consistent.
        """
        with self._lock:
            return tuple(self._records.values())

    # -- eviction ---------------------------------------------------------------

    def hold(self, items: Sequence[DataItem]) -> list[str]:
        """Record a job's items and hold the records it did not find.

        Each occurrence of an item this truth lacks, or that another job
        already holds, counts one hold; a caller's record is used as is.
        Returns the held ids, which the job passes to :meth:`unhold` once it
        no longer reads them.  If recording raises, the holds are removed.
        """
        with self._lock:
            held = [
                item.item_id
                for item in items
                if item.item_id in self._holds or item.item_id not in self._records
            ]
            for item_id in held:
                self._holds[item_id] = self._holds.get(item_id, 0) + 1
            try:
                self.record_batch(items)
            except BaseException:
                self._drop(held)
                raise
        return held

    def unhold(self, held: Iterable[str]) -> int:
        """Remove a job's holds and free the records nobody holds any more.

        Returns how many records were freed.
        """
        with self._lock:
            return self.release_many(self._drop(held))

    def _drop(self, held: Iterable[str]) -> list[str]:
        """Remove holds (lock held); the ids nobody holds any more."""
        free = []
        for item_id in held:
            count = self._holds[item_id] - 1
            if count:
                self._holds[item_id] = count
            else:
                del self._holds[item_id]
                free.append(item_id)
        return free

    def release(self, item_id: str) -> bool:
        """Drop one item's record, held or not; returns whether it was present.

        Long-running streams share one cache, and without eviction it grows
        with every item ever labeled.  Engine jobs free what they recorded
        through :meth:`unhold`; this is for records a caller put in.
        """
        return self._records.pop(item_id, None) is not None

    def release_many(self, item_ids: Iterable[str]) -> int:
        """Release several records; returns how many were present."""
        return sum(self.release(item_id) for item_id in item_ids)

    # -- queries ---------------------------------------------------------------

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(self._records)

    def record(self, item_id: str) -> ItemRecord:
        return self._records[item_id]

    def output(self, item_id: str, model_index: int) -> ModelOutput:
        """The recorded output of one model on one item, labels named."""
        ids, confs = self._records[item_id].emissions(model_index)
        return self.zoo[model_index].render(item_id, ids.tolist(), confs.tolist())

    def solo_values(self, item_id: str) -> np.ndarray:
        """Each model's standalone valuable-output value on the item."""
        return self._records[item_id].solo_values

    def total_value(self, item_id: str) -> float:
        """f(M, d): value of executing the whole zoo."""
        return self._records[item_id].total_value

    def valuable(self, item_id: str, model_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, confs) of one model's valuable labels on one item."""
        return self._records[item_id].valuable_pairs[model_index]

    def valuable_labels(
        self, item_id: str, model_index: int
    ) -> tuple[LabelOutput, ...]:
        """One model's valuable labels on one item, named.

        Rendered on first read and kept on the record, so replaying a
        recorded item builds each label object once.
        """
        record = self._records[item_id]
        labels = record.valuable_labels.get(model_index)
        if labels is None:
            ids, confs = record.valuable_pairs[model_index]
            labels = named_labels(
                self.zoo.space.name_of, ids.tolist(), confs.tolist()
            )
            record.valuable_labels[model_index] = labels
        return labels

    # -- aggregate statistics ---------------------------------------------------

    def useful_execution_fraction(self) -> float:
        """Fraction of (model, item) executions that emit valuable labels.

        The paper's Fig. 1 observes 16/30 executions producing nothing
        useful on its sample; this is the dataset-wide counterpart.
        """
        if not self._records:
            return 0.0
        useful = sum(int(r.useful_models.sum()) for r in self._records.values())
        return useful / (len(self._records) * len(self.zoo))

    def optimal_time_fraction(self) -> float:
        """Time of the "optimal policy" relative to "no policy" (§II).

        The optimal policy runs exactly the models that emit valuable
        labels; no policy runs everything.
        """
        if not self._records:
            return 0.0
        times = self.zoo.times
        total = self.zoo.total_time * len(self._records)
        useful_time = sum(
            float(times[r.useful_models].sum()) for r in self._records.values()
        )
        return useful_time / total
