"""Isolated micro-probes: one public function each, on recorded inputs.

These are the layer costs no span can see from outside — a codec, a
queue operation, a journal append — timed alone so a change to one shows
without the rest of the stack around it.  They run in the traced pass
only and never inside a timed window.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import time
from concurrent.futures import Future
from pathlib import Path

from repro import LabelingEngine
from repro.core.state import LabelingState
from repro.durability.journal import Journal
from repro.engine import WorldSnapshot
from repro.engine.shm import (
    decode_records,
    decode_traces,
    encode_records,
    encode_traces,
)
from repro.scheduling import RelaxedOptimalDeadline
from repro.serving import HierarchicalRequestQueue
from repro.serving.gateway import TenantDirectory
from repro.serving.gateway.quota import TenantQuota
from repro.serving.gateway.wire import json_body, read_request
from repro.serving.queue import LabelingRequest, RequestQueue

from perfledger.world import SPECS, World

#: Offset of the probe items inside the seed's input range.
PROBE_OFFSET = 900_000


def _per(call, n: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds per unit for ``call`` doing ``n`` units."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best / n


def response_row(result, cached: bool = False) -> dict:
    """One result as the gateway's response row (same fields, same rounding)."""
    return {
        "item_id": result.item_id,
        "status": "completed",
        "labels": [
            {"name": label.name, "confidence": round(label.confidence, 6)}
            for label in result.labels
        ],
        "models_executed": result.models_executed,
        "time_used": round(result.time_used, 6),
        "recall": round(result.recall, 6),
        "cached": cached,
    }


def run_probes(world: World, seed: int, tmp: Path) -> dict[str, tuple[float, str]]:
    """Every (c) metric, as ``name -> (value, unit)``."""
    out: dict[str, tuple[float, str]] = {}
    n = world.scale.work(64, 16)
    predictor = world.predictor()

    # data / zoo: generate and record fresh items.
    started = time.perf_counter()
    items = world.items(seed, PROBE_OFFSET, 2 * n)
    out["data.generate_items_per_s"] = (
        len(items) / (time.perf_counter() - started),
        "items/s",
    )
    truth = world.empty_truth()
    started = time.perf_counter()
    truth.record_batch(items)
    out["zoo.record_us_per_item"] = (
        (time.perf_counter() - started) / len(items) * 1e6,
        "us",
    )
    items = items[:n]
    ids = [item.item_id for item in items]

    # rl: the stacked forward at batch 64 and at batch 1.
    states = [LabelingState(truth, item_id) for item_id in ids]
    out["rl.forward_us_per_row_b64"] = (
        _per(lambda: predictor.predict_batch(states), len(states), 10) * 1e6,
        "us",
    )
    out["rl.forward_us_per_row_b1"] = (
        _per(lambda: [predictor.predict_batch([s]) for s in states], len(states))
        * 1e6,
        "us",
    )

    # scheduling: mean recall under the deadline spec vs the optimal* bound.
    engine = LabelingEngine(world.zoo, predictor, world.config, backend="batched")
    by_spec = {
        name: engine.label_batch(items, spec, truth=truth)
        for name, spec in SPECS.items()
    }
    deadline = SPECS["deadline"].deadline
    star = RelaxedOptimalDeadline()
    ours = sum(r.recall for r in by_spec["deadline"])
    best = sum(star.recall(truth, item_id, deadline) for item_id in ids)
    out["scheduling.recall_vs_optimal_star"] = (ours / best if best else 1.0, "ratio")

    # engine: the fixed-dtype codecs both transports share, and the snapshot.
    records = [truth.record(item_id) for item_id in ids]
    encoded = encode_records(records)
    out["engine.encode_records_us_per_item"] = (
        _per(lambda: encode_records(records), n) * 1e6,
        "us",
    )
    out["engine.decode_records_us_per_item"] = (
        _per(lambda: decode_records(encoded, world.zoo), n) * 1e6,
        "us",
    )
    out["engine.record_bytes_per_item"] = (len(encoded) / n, "bytes")
    traces = [r.trace for results in by_spec.values() for r in results]
    trace_ids = [t.item_id for t in traces]
    packed = encode_traces(traces)
    out["engine.encode_traces_us_per_item"] = (
        _per(lambda: encode_traces(traces), len(traces)) * 1e6,
        "us",
    )
    out["engine.decode_traces_us_per_item"] = (
        _per(lambda: decode_traces(packed, trace_ids, world.zoo.names), len(traces))
        * 1e6,
        "us",
    )
    out["engine.trace_bytes_per_item"] = (len(packed) / len(traces), "bytes")
    started = time.perf_counter()
    snapshot = WorldSnapshot.capture(truth, predictor)
    out["engine.snapshot_capture_s"] = (time.perf_counter() - started, "s")
    out["engine.snapshot_bytes"] = (float(len(pickle.dumps(snapshot))), "bytes")

    out.update(_queue_probes(items))
    out.update(_journal_probes(items, tmp / "probe-journal"))
    out.update(_gateway_probes(by_spec["qgreedy"]))
    return out


def _queue_probes(items) -> dict:
    """One 3-tenant x 3-spec put/pop sequence through both queue classes."""
    specs = [
        spec.with_(tenant=f"tenant-{t}") for t in range(3) for spec in SPECS.values()
    ]
    sequence = [(items[i % len(items)], specs[i % len(specs)]) for i in range(2304)]

    def drive(queue_cls):
        queue = queue_cls(max_depth=len(sequence))
        for item, spec in sequence:
            queue.put(LabelingRequest(item=item, spec=spec, future=Future()))
        while queue.depth:
            queue.pop_batch(64, 0.0)

    return {
        "serving.flat_queue_us_per_req": (
            _per(lambda: drive(RequestQueue), len(sequence)) * 1e6,
            "us",
        ),
        "serving.hier_queue_us_per_req": (
            _per(lambda: drive(HierarchicalRequestQueue), len(sequence)) * 1e6,
            "us",
        ),
    }


def _journal_probes(items, directory: Path) -> dict:
    """Append 1000 admissions, then time reopening the journal on them."""
    spec = SPECS["deadline"]
    with Journal(directory, fsync="batch") as journal:
        started = time.perf_counter()
        for i in range(1000):
            journal.log_admission(items[i % len(items)], spec)
        append = (time.perf_counter() - started) / 1000
    started = time.perf_counter()
    with Journal(directory, fsync="batch") as journal:
        replay = time.perf_counter() - started
        if journal.pending_count != 1000:
            raise RuntimeError(
                f"journal replay found {journal.pending_count} pending, not 1000"
            )
    return {
        "durability.log_admission_us": (append * 1e6, "us"),
        "durability.replay_1k_pending_s": (replay, "s"),
    }


def _gateway_probes(results) -> dict:
    """The gateway's per-request steps: parse, authenticate, admit, render."""
    body = json.dumps({"item_id": results[0].item_id, "deadline": 0.35}).encode()
    raw = (
        b"POST /v1/label HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Authorization: Bearer demo-key-tenant-1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )

    async def parse(n: int) -> float:
        started = time.perf_counter()
        for _ in range(n):
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            await read_request(reader)
        return (time.perf_counter() - started) / n

    directory = TenantDirectory.demo(3)
    tenant = directory.get("tenant-1")
    quota = TenantQuota(tenant)

    def admit():
        for _ in range(1000):
            quota.admit(1)
            quota.release(1)

    rows = [response_row(result) for result in results]
    payload = {"total": len(rows), "completed": len(rows), "results": rows}
    return {
        "gateway.read_request_us": (asyncio.run(parse(500)) * 1e6, "us"),
        "gateway.authenticate_us": (
            _per(
                lambda: [directory.authenticate(tenant.api_key) for _ in range(1000)],
                1000,
            )
            * 1e6,
            "us",
        ),
        "gateway.quota_admit_us": (_per(admit, 1000) * 1e6, "us"),
        "gateway.json_body_us_per_row": (
            _per(lambda: json_body(payload), len(rows)) * 1e6,
            "us",
        ),
        "gateway.response_bytes_per_row": (
            len(json_body(payload)) / len(rows),
            "bytes",
        ),
    }
