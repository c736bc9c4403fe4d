"""Persistence: save/load ground-truth records and trained agents.

The paper's protocol executes the zoo once and replays recorded outputs for
every policy evaluation.  At paper scale that recording is worth keeping
across processes; this module serializes a :class:`GroundTruth` (outputs,
confidences, item latents are *not* stored — only what replay needs) plus
agents to ``.npz`` archives.

File layout (one npz):

* header arrays (``__items``, ``__models``, thresholds, seeds);
* per item/model: label-id and confidence arrays (ragged, stored flat with
  offsets) — the records' own emission columns, end to end.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.config import WorldConfig
from repro.data.datasets import DataItem
from repro.data.semantics import SceneContent
from repro.durability.checkpoint import atomic_write_bytes
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth, ItemRecord

_FORMAT_VERSION = 1


def save_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    """Serialize recorded outputs (all emissions, any confidence)."""
    records = [truth.record(item_id) for item_id in truth.item_ids]
    item_ids = [record.item.item_id for record in records]
    n_models = len(truth.zoo)
    offsets = np.zeros((len(records), n_models, 2), dtype=np.int64)
    cursor = 0
    for row, record in enumerate(records):
        offsets[row, :, 0] = cursor + record.offsets[:-1]
        offsets[row, :, 1] = cursor + record.offsets[1:]
        cursor += len(record.ids)
    flat_ids = np.concatenate(
        [record.ids for record in records] + [np.zeros(0, dtype=np.int64)]
    )
    flat_confs = np.concatenate([record.confs for record in records] + [np.zeros(0)])
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        version=np.asarray(_FORMAT_VERSION),
        item_ids=np.asarray(item_ids),
        model_names=np.asarray(truth.zoo.names),
        threshold=np.asarray(truth.threshold),
        offsets=offsets,
        flat_label_ids=flat_ids,
        flat_confidences=flat_confs,
    )
    # Match np.savez's filename convention, then land the archive
    # atomically — a crash mid-save leaves the previous archive (or
    # nothing), never a torn .npz another process would fail to load.
    final = Path(path)
    if final.suffix != ".npz":
        final = final.with_name(final.name + ".npz")
    atomic_write_bytes(final, buffer.getvalue())


def load_ground_truth(
    zoo: ModelZoo, path: str | Path, config: WorldConfig | None = None
) -> GroundTruth:
    """Rebuild a :class:`GroundTruth` from a saved archive.

    The zoo must match the one the archive was recorded with (verified by
    model names); items are reconstructed with placeholder latent content —
    replay only ever reads recorded outputs.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported ground-truth format v{version}")
        saved_models = [str(m) for m in data["model_names"]]
        if saved_models != list(zoo.names):
            raise ValueError(
                "zoo mismatch: archive was recorded with different models"
            )
        item_ids = [str(i) for i in data["item_ids"]]
        offsets = data["offsets"]
        flat_ids = data["flat_label_ids"]
        flat_confs = data["flat_confidences"]

    truth = GroundTruth(zoo, [], config)
    placeholder = SceneContent(scene=0, scene_strength=0.0)
    n_labels = len(zoo.space)
    if (offsets[:, 1:, 0] != offsets[:, :-1, 1]).any():
        raise ValueError("archive does not lay each item's models out back to back")
    records = []
    for row, item_id in enumerate(item_ids):
        # One item's emissions are one slice of the flat columns.
        bounds = np.append(offsets[row, :, 0], offsets[row, -1, 1])
        start, stop = bounds[0], bounds[-1]
        dataset, _, index = item_id.partition("/")
        records.append(
            ItemRecord.from_emissions(
                DataItem(
                    item_id=item_id,
                    dataset=dataset,
                    index=int(index) if index.isdigit() else -1,
                    content=placeholder,
                ),
                offsets=bounds - start,
                ids=flat_ids[start:stop],
                confs=flat_confs[start:stop],
                threshold=truth.threshold,
                n_labels=n_labels,
            )
        )
    truth.adopt(records)
    return truth
