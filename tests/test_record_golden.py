"""Golden digests of recorded zoo executions.

Every trace-parity invariant and every recall number in the repo sits on
the record of ``(model, item)`` emissions: which labels, in which order,
with which confidence bit patterns.  The digests below were computed on
the commit *before* the columnar recording core landed (PR 11,
``063b42f``) with this very file, through accessors both commits share
(``truth.output`` / ``truth.valuable`` / the record's aggregates), so a
pass means the recording core reproduces the old per-(model, item) object
path byte for byte.

Regenerate (only after a deliberate change to the simulated world):
``PYTHONPATH=src python tests/test_record_golden.py``.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.config import WorldConfig
from repro.data.datasets import generate_dataset
from repro.data.profiles import DATASET_PROFILES
from repro.data.streams import chunked_stream
from repro.labels import build_label_space
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth

N_ITEMS = 256
SCALES = ("mini", "full")

GOLDEN = {
    "mini/mscoco2017": "c8fffdc8042788193751f9bac1b4a6d60d00ee0f5eedc0e4e15bc82ef8f67d86",
    "mini/places365": "a5c2726e12821c42565951a9e5f6d52bdccf8a670a608fe3bd7ba751d579ad13",
    "mini/mirflickr25": "7fec7dc1397f5e650332aae4f00dc6cd73f1d25d266823087a44b368fa5aaf8b",
    "mini/stanford40": "a1c68ea29fdd084164085e5474e97b65d6644a8395d5a2741e08e763edce1bd6",
    "mini/voc2012": "4dcbd6e18c528ab81d907ed16cfd30c56cce9d6ae23dc86fd5f1011fd96d4323",
    "mini/chunked_stream": "a8d4c3a2c21446eee9d4739ccdc6fbc578e2692197c9ccacb22865f431620a40",
    "full/mscoco2017": "30f188ab985abcbc41b16927ef0b4ebce765c190342d0fb47fc1136e758eec0c",
    "full/places365": "732e16660dc6212616690f66fb87c98e94a766f0eee194b261643bf44ef9103b",
    "full/mirflickr25": "b03f83c972d69b5aca75d1a0e5a52c29943932b476e1641d2ee77ab5957c9a34",
    "full/stanford40": "08e42b657a6a120346287a658492da047a7274ab43f012328ebe50d4cf2e37bd",
    "full/voc2012": "66296431b813f11ef2b6ede2e75c9e59aaaae59be815ed83fe85aa0f7ca01530",
    "full/chunked_stream": "373f29023340aece9578d8d67a4829dc8871e3e3dd94721ec84fab010ea949cc",
}


def record_bytes(truth: GroundTruth, item_id: str) -> bytes:
    """Canonical bytes of one record: emissions, valuable arrays, aggregates."""
    record = truth.record(item_id)
    parts = [item_id.encode("utf-8"), b"\0"]
    for j, model in enumerate(truth.zoo):
        output = truth.output(item_id, j)
        assert output.model == model.name and output.item_id == item_id
        labels = output.labels
        parts.append(struct.pack("<I", len(labels)))
        parts.append(np.asarray([l.label_id for l in labels], dtype=np.int64).tobytes())
        parts.append(
            np.asarray([l.confidence for l in labels], dtype=np.float64).tobytes()
        )
        parts.append("\0".join(l.name for l in labels).encode("utf-8"))
        ids, confs = truth.valuable(item_id, j)
        parts.append(struct.pack("<I", len(ids)))
        parts.append(np.asarray(ids, dtype=np.int64).tobytes())
        parts.append(np.asarray(confs, dtype=np.float64).tobytes())
    parts.append(np.asarray(record.solo_values, dtype=np.float64).tobytes())
    parts.append(np.asarray(record.best_confidence, dtype=np.float64).tobytes())
    parts.append(struct.pack("<d", record.total_value))
    return b"".join(parts)


def digest(truth: GroundTruth) -> str:
    sha = hashlib.sha256()
    for item_id in truth.item_ids:
        sha.update(record_bytes(truth, item_id))
    return sha.hexdigest()


def _world(scale: str):
    config = WorldConfig(vocab_scale=scale)
    space = build_label_space(scale)
    return config, space, build_zoo(config, space)


def compute_digests() -> dict[str, str]:
    out: dict[str, str] = {}
    for scale in SCALES:
        config, space, zoo = _world(scale)
        for dataset in DATASET_PROFILES:
            items = generate_dataset(space, config, dataset, N_ITEMS)
            out[f"{scale}/{dataset}"] = digest(GroundTruth(zoo, items, config))
        stream = chunked_stream(space, config, "mscoco2017", 16, 16, seed=3)
        out[f"{scale}/chunked_stream"] = digest(
            GroundTruth(zoo, [c.item for c in stream], config)
        )
    return out


@pytest.fixture(scope="module", params=SCALES)
def world(request):
    return request.param, *_world(request.param)


@pytest.mark.parametrize("dataset", sorted(DATASET_PROFILES))
def test_dataset_records_match_golden_digest(world, dataset):
    scale, config, space, zoo = world
    items = generate_dataset(space, config, dataset, N_ITEMS)
    truth = GroundTruth(zoo, items, config)
    assert digest(truth) == GOLDEN[f"{scale}/{dataset}"]


def test_chunked_stream_records_match_golden_digest(world):
    scale, config, space, zoo = world
    stream = chunked_stream(space, config, "mscoco2017", 16, 16, seed=3)
    truth = GroundTruth(zoo, [c.item for c in stream], config)
    assert digest(truth) == GOLDEN[f"{scale}/chunked_stream"]


if __name__ == "__main__":
    for key, value in compute_digests().items():
        print(f'    "{key}": "{value}",')
