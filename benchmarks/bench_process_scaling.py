"""Process-backend dispatch speedup over the serial loop, and worker scaling.

Two measurements share one pre-recorded world (pure scheduling, no zoo
execution):

1. **Dispatch throughput** — the CI gate.  The default process backend
   (chunks sharded over worker processes, the vectorized lock-step tick
   inside each chunk, payloads through shared-memory rings) is measured
   against the reference every backend must reproduce: in-process
   :class:`SerialBackend`, the per-item scheduling loop.  All three paper
   regimes — unconstrained Q-greedy, deadline (Algorithm 1),
   deadline+memory (Algorithm 2).  ``--assert-speedup`` gates the ratio
   of total serial time to total process time.  Every process run is
   checked trace-identical to the serial one, and it must actually have
   used the shared-memory result path (``chunk_stats`` says so) — speed
   never buys divergence.

2. **Worker scaling** — process pools of doubling width against the
   single-process ``batched`` backend on the unconstrained trace: the
   scheduling-escapes-the-GIL evidence.

Run standalone (the CI smoke path uses the tiny world and uploads the
JSON as the ``BENCH_dispatch`` artifact)::

    PYTHONPATH=src python benchmarks/bench_process_scaling.py --scale smoke \
        --json BENCH_dispatch.json
    PYTHONPATH=src python benchmarks/bench_process_scaling.py --scale full \
        --assert-speedup 2.0

For the cleanest numbers pin the BLAS to one thread
(``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``): a multi-threaded BLAS
steals the very cores the worker processes are being measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.config import WorldConfig
from repro.data.datasets import generate_dataset
from repro.engine import (
    BatchedBackend,
    LabelingEngine,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.labels import build_label_space
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.spec import LabelingSpec
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth

#: The acceptance bar at full scale: the process backend (vectorized ticks
#: in worker processes) at least doubles the serial loop's throughput.
TARGET_DISPATCH_SPEEDUP = 2.0

#: (name, spec) per regime the dispatch comparison covers.
DISPATCH_REGIMES = (
    ("qgreedy", LabelingSpec()),
    ("deadline", LabelingSpec(deadline=0.35)),
    ("deadline_memory", LabelingSpec(deadline=0.5, memory_budget=8000.0)),
)


def build_world(scale: str, n_items: int, seed: int = 20200208):
    """(config, zoo, items, truth, predictor) with ground truth pre-recorded.

    Scheduling throughput does not depend on agent quality (every forward
    costs the same), so the predictor wraps a freshly initialized network
    and the bench skips training.
    """
    vocab = "full" if scale == "full" else "mini"
    config = WorldConfig(vocab_scale=vocab, seed=seed)
    space = build_label_space(config.vocab_scale)
    zoo = build_zoo(config, space)
    dataset = generate_dataset(space, config, "mscoco2017", n_items)
    truth = GroundTruth(zoo, dataset, config)
    agent = make_agent("dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1)
    predictor = AgentPredictor(agent, len(zoo))
    return config, zoo, list(dataset), truth, predictor


def regime_references(world) -> dict[str, list]:
    """SerialBackend traces per regime — the parity baseline for every run."""
    config, zoo, items, truth, predictor = world
    engine = LabelingEngine(zoo, predictor, config, backend="serial")
    return {
        name: [r.trace for r in engine.label_batch(items, spec, truth=truth)]
        for name, spec in DISPATCH_REGIMES
    }


def traces_identical(got, ref) -> bool:
    return len(got) == len(ref) and all(
        g.item_id == r.item_id and g.executions == r.executions
        for g, r in zip(got, ref)
    )


def measure_dispatch(world, backend, repeats, references) -> dict:
    """One backend across all dispatch regimes (closes it afterwards).

    One backend instance serves every regime (reuse is the serving steady
    state); a warm-up batch pays any spawn + snapshot shipping before any
    timing.
    """
    config, zoo, items, truth, predictor = world
    out: dict = {"backend": backend.name, "regimes": {}}
    total = 0.0
    engine = LabelingEngine(zoo, predictor, config, backend=backend)
    try:
        engine.label_batch(items, truth=truth)  # warm: spawn pool, ship world
        for name, spec in DISPATCH_REGIMES:
            results = engine.label_batch(items, spec, truth=truth)
            parity = traces_identical([r.trace for r in results], references[name])
            best = None
            for _ in range(max(repeats, 1)):
                start = time.perf_counter()
                engine.label_batch(items, spec, truth=truth)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            out["regimes"][name] = {
                "best_s": best,
                "items_per_s": len(items) / best,
                "parity": parity,
            }
            total += best
    finally:
        backend.close()
    out["total_s"] = total
    out["items_per_s"] = len(items) * len(DISPATCH_REGIMES) / total
    out["parity"] = all(r["parity"] for r in out["regimes"].values())
    return out


def measure_backend(world, backend, repeats: int, reference=None) -> dict:
    """Best-of-``repeats`` items/sec of one pooled backend (scaling sweep)."""
    config, zoo, items, truth, predictor = world
    engine = LabelingEngine(zoo, predictor, config, backend=backend)
    try:
        start = time.perf_counter()
        results = engine.label_batch(items, truth=truth)
        first_run = time.perf_counter() - start
        parity = (
            traces_identical([r.trace for r in results], reference)
            if reference is not None
            else None
        )
        best = first_run
        for _ in range(repeats):
            start = time.perf_counter()
            engine.label_batch(items, truth=truth)
            best = min(best, time.perf_counter() - start)
    finally:
        engine.backend.close()
    out: dict = {"items_per_s": len(items) / best, "first_run_s": first_run}
    if parity is not None:
        out["parity"] = parity
    return out


def worker_sweep(max_workers: int) -> list[int]:
    """1, 2, 4, ... doubling up to (and always including) ``max_workers``."""
    sweep, width = [], 1
    while width < max_workers:
        sweep.append(width)
        width *= 2
    sweep.append(max_workers)
    return sweep


def run(scale: str, n_items: int, max_workers: int, repeats: int) -> dict:
    world = build_world(scale, n_items)
    references = regime_references(world)

    # 1. Dispatch throughput: the default process backend vs the in-process
    # serial loop, all three regimes.
    process = ProcessPoolBackend(max_workers=max_workers)
    optimized = measure_dispatch(world, process, repeats, references)
    optimized["transport"] = process.chunk_stats["transport"]
    baseline = measure_dispatch(world, SerialBackend(), repeats, references)
    dispatch = {
        "workers": max_workers,
        "optimized": optimized,
        "baseline": baseline,
        "speedup": baseline["total_s"] / optimized["total_s"],
        "shm_used": optimized["transport"].get("result_shm", 0) > 0,
        "parity": optimized["parity"] and baseline["parity"],
    }

    # 2. Process scaling against single-process batched, unconstrained trace.
    reference = references["qgreedy"]
    batched = measure_backend(world, BatchedBackend(), repeats)
    sweeps = []
    for workers in worker_sweep(max_workers):
        process = measure_backend(
            world,
            ProcessPoolBackend(max_workers=workers),
            repeats,
            reference=reference,
        )
        sweeps.append(
            {
                "workers": workers,
                "process_items_per_s": process["items_per_s"],
                "process_first_run_s": process["first_run_s"],
                "speedup_vs_batched": process["items_per_s"]
                / batched["items_per_s"],
                "parity": process["parity"],
            }
        )
    # Uneven chunks must not change traces either (chunk_size=3 leaves a
    # ragged tail for any n_items not divisible by 3).
    uneven = measure_backend(
        world,
        ProcessPoolBackend(max_workers=max_workers, chunk_size=3),
        repeats=0,
        reference=reference,
    )
    return {
        "bench": "dispatch",
        "scale": scale,
        "n_items": n_items,
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "dispatch": dispatch,
        "batched_items_per_s": batched["items_per_s"],
        "sweeps": sweeps,
        "uneven_chunk_parity": uneven["parity"],
        "parity": (
            dispatch["parity"]
            and bool(uneven["parity"])
            and all(s["parity"] for s in sweeps)
        ),
    }


def print_report(report: dict) -> None:
    dispatch = report["dispatch"]
    print(
        f"dispatch throughput @ {dispatch['workers']} workers "
        f"(optimized = process backend, baseline = in-process serial loop)"
    )
    print(
        f"{'regime':>16s} {'baseline it/s':>14s} {'optimized it/s':>15s} "
        f"{'speedup':>8s} {'parity':>7s}"
    )
    for name, _ in DISPATCH_REGIMES:
        opt = dispatch["optimized"]["regimes"][name]
        base = dispatch["baseline"]["regimes"][name]
        ok = opt["parity"] and base["parity"]
        print(
            f"{name:>16s} {base['items_per_s']:14.1f} {opt['items_per_s']:15.1f} "
            f"{base['best_s'] / opt['best_s']:7.2f}x {'ok' if ok else 'FAIL':>7s}"
        )
    print(
        f"{'overall':>16s} {dispatch['baseline']['items_per_s']:14.1f} "
        f"{dispatch['optimized']['items_per_s']:15.1f} "
        f"{dispatch['speedup']:7.2f}x "
        f"{'ok' if dispatch['parity'] else 'FAIL':>7s}"
    )
    print(f"shm result path used: {'yes' if dispatch['shm_used'] else 'NO'}")
    print()
    print(
        f"worker scaling: scale={report['scale']} items={report['n_items']} "
        f"cpus={report['cpu_count']} regime=qgreedy (pre-recorded truth)"
    )
    print(f"single-process batched: {report['batched_items_per_s']:.1f} it/s")
    print(f"{'workers':>7s} {'process it/s':>13s} {'vs batched':>10s} {'parity':>7s}")
    for sweep in report["sweeps"]:
        print(
            f"{sweep['workers']:7d} {sweep['process_items_per_s']:13.1f} "
            f"{sweep['speedup_vs_batched']:9.2f}x "
            f"{'ok' if sweep['parity'] else 'FAIL':>7s}"
        )
    print(
        f"uneven-chunk parity: "
        f"{'ok' if report['uneven_chunk_parity'] else 'FAIL'}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=("smoke", "full"))
    parser.add_argument("--items", type=int, default=None)
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="pool width for the dispatch comparison and top of the worker "
        "sweep (default: 2 at smoke, else max(cpu, 4))",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--json", default=None, help="write the report here")
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="exit nonzero unless process-backend dispatch throughput reaches "
        "this multiple of the serial loop's (the bar is "
        f"{TARGET_DISPATCH_SPEEDUP} at full scale)",
    )
    args = parser.parse_args(argv)

    smoke = args.scale == "smoke"
    n_items = args.items or (32 if smoke else 96)
    max_workers = args.max_workers or (2 if smoke else max(os.cpu_count() or 1, 4))
    repeats = args.repeats if args.repeats is not None else (1 if smoke else 3)

    report = run(args.scale, n_items, max_workers, repeats)
    print_report(report)

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report -> {args.json}")

    if not report["parity"]:
        print("FAIL: process traces diverged from SerialBackend")
        return 1
    if not report["dispatch"]["shm_used"]:
        print("FAIL: process run never used the shared-memory result path")
        return 1
    speedup = report["dispatch"]["speedup"]
    if args.assert_speedup is not None and speedup < args.assert_speedup:
        print(
            f"FAIL: dispatch speedup {speedup:.2f}x below required "
            f"{args.assert_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
