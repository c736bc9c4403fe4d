"""Dispatch overlap and fault tolerance of the cluster backend.

Three measurements share one pre-recorded world (pure scheduling, no zoo
execution):

1. **Parity** — the cluster backend at the widest fleet is checked
   trace-identical to :class:`SerialBackend` across all three paper
   regimes (unconstrained Q-greedy, deadline, deadline+memory) and at an
   uneven chunk size.  Sharding never buys divergence.

2. **Scaling** — labeled items/sec with 1, 2, 4 local worker processes.
   Every worker carries ``--exec-delay`` seconds of artificial per-item
   latency (a stand-in for model execution: GPU inference, remote model
   APIs), so the number measures what the dispatcher actually owns —
   overlap across the fleet — honestly even on single-core CI hosts.
   ``--assert-speedup`` gates the widest/1-worker ratio.

3. **Chaos** — a worker is SIGKILLed mid-job; the job must still finish
   with serial-parity traces via re-dispatch to the next live link, and
   ``cluster_stats`` must show at least one re-dispatched chunk.

Run standalone (the CI smoke path uploads the JSON as the
``BENCH_cluster_scaling`` artifact)::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py \
        --scale smoke --json BENCH_cluster_scaling.json --assert-speedup 2.0

``--external-workers host:port,host:port`` adds a measurement against
already-running ``python -m repro.cli cluster-worker`` processes (the CI
smoke leg exercises that path); the scaling sweep and the chaos run
always use self-spawned fleets, since they need to control worker count
and worker death.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

from repro.config import WorldConfig
from repro.data.datasets import generate_dataset
from repro.engine import (
    ClusterBackend,
    LabelingEngine,
    spawn_local_workers,
)
from repro.labels import build_label_space
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.spec import LabelingSpec
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth

#: The issue's acceptance bar: 4 workers at least double 1-worker
#: dispatch throughput on the delay-carrying fleet.
TARGET_SCALING_SPEEDUP = 2.0

#: (name, spec) per regime the parity check covers.
PARITY_REGIMES = (
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
        for name, spec in PARITY_REGIMES
    }


def traces_identical(got, ref) -> bool:
    return len(got) == len(ref) and all(
        g.item_id == r.item_id and g.executions == r.executions
        for g, r in zip(got, ref)
    )


def measure_fleet(
    world,
    addresses,
    references,
    repeats: int,
    chunk_size: int | None = None,
    full_parity: bool = False,
) -> dict:
    """One fleet's parity + best-of-``repeats`` throughput.

    The warm-up batch pays connect + snapshot shipping before any timing
    (connection reuse is the serving steady state).  ``full_parity``
    additionally sweeps the deadline regimes and an uneven chunk size.
    """
    config, zoo, items, truth, predictor = world
    out: dict = {"workers": len(addresses), "regimes": {}}
    with ClusterBackend(workers=addresses, chunk_size=chunk_size) as backend:
        engine = LabelingEngine(zoo, predictor, config, backend=backend)
        engine.label_batch(items, truth=truth)  # warm: connect, ship world
        sweep = PARITY_REGIMES if full_parity else PARITY_REGIMES[:1]
        for name, spec in sweep:
            results = engine.label_batch(items, spec, truth=truth)
            out["regimes"][name] = traces_identical(
                [r.trace for r in results], references[name]
            )
        best = None
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            engine.label_batch(items, truth=truth)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        out["transport"] = backend.chunk_stats["transport"]
    if full_parity:
        # Uneven chunks leave a ragged tail and multiple chunks per
        # worker; traces must not care.
        with ClusterBackend(workers=addresses, chunk_size=3) as backend:
            engine = LabelingEngine(zoo, predictor, config, backend=backend)
            results = engine.label_batch(items, truth=truth)
            out["uneven_chunk_parity"] = traces_identical(
                [r.trace for r in results], references["qgreedy"]
            )
    out["best_s"] = best
    out["items_per_s"] = len(items) / best
    out["parity"] = all(out["regimes"].values()) and out.get(
        "uneven_chunk_parity", True
    )
    return out


def measure_chaos(world, references, exec_delay: float) -> dict:
    """SIGKILL one worker mid-job; the job must finish with parity.

    Small chunks give every worker several chunks, so the killed
    worker's unfinished chunks exist to re-dispatch; the kill timer
    fires about a third of the way into the expected run.
    """
    config, zoo, items, truth, predictor = world
    with spawn_local_workers(3, delay_per_item=exec_delay) as fleet:
        backend = ClusterBackend(
            workers=fleet.addresses, chunk_size=max(1, len(items) // 8)
        )
        with backend:
            engine = LabelingEngine(zoo, predictor, config, backend=backend)
            engine.label_batch(items, truth=truth)  # warm: ship the world
            kill_at = max(0.05, exec_delay * len(items) / 9)
            timer = threading.Timer(kill_at, fleet.kill, args=(0,))
            timer.start()
            try:
                results = engine.label_batch(items, truth=truth)
            finally:
                timer.cancel()
            stats = backend.cluster_stats
            return {
                "parity": traces_identical(
                    [r.trace for r in results], references["qgreedy"]
                ),
                "redispatched": stats["redispatched"],
                "survived": stats["redispatched"] >= 1,
            }


def run(
    scale: str,
    n_items: int,
    worker_counts: tuple[int, ...],
    exec_delay: float,
    repeats: int,
    external: tuple[str, ...],
    chaos: bool,
) -> dict:
    world = build_world(scale, n_items)
    references = regime_references(world)

    # Many small chunks per job (~24): chunks go round-robin over live
    # links, so every worker gets an equal share of the delay to overlap.
    chunk_size = max(1, n_items // 24)
    sweeps = []
    for index, n_workers in enumerate(worker_counts):
        with spawn_local_workers(n_workers, delay_per_item=exec_delay) as fleet:
            sweeps.append(
                measure_fleet(
                    world,
                    fleet.addresses,
                    references,
                    repeats,
                    chunk_size=chunk_size,
                    # Full parity sweep once, at the widest fleet.
                    full_parity=index == len(worker_counts) - 1,
                )
            )
    speedup = sweeps[-1]["items_per_s"] / sweeps[0]["items_per_s"]

    report: dict = {
        "bench": "cluster_scaling",
        "scale": scale,
        "n_items": n_items,
        "cpu_count": os.cpu_count(),
        "exec_delay": exec_delay,
        "repeats": repeats,
        "sweeps": sweeps,
        "speedup": speedup,
        "parity": all(s["parity"] for s in sweeps),
    }
    if external:
        report["external"] = measure_fleet(
            world, external, references, repeats, full_parity=True
        )
        report["parity"] = report["parity"] and report["external"]["parity"]
    if chaos:
        report["chaos"] = measure_chaos(world, references, exec_delay)
        report["parity"] = report["parity"] and report["chaos"]["parity"]
    return report


def print_report(report: dict) -> None:
    print(
        f"cluster scaling: scale={report['scale']} items={report['n_items']} "
        f"cpus={report['cpu_count']} "
        f"exec_delay={report['exec_delay'] * 1000:.0f}ms/item "
        f"regime=qgreedy (pre-recorded truth)"
    )
    print(f"{'workers':>7s} {'items/s':>10s} {'vs 1w':>7s} {'parity':>7s}")
    base = report["sweeps"][0]["items_per_s"]
    for sweep in report["sweeps"]:
        print(
            f"{sweep['workers']:7d} {sweep['items_per_s']:10.1f} "
            f"{sweep['items_per_s'] / base:6.2f}x "
            f"{'ok' if sweep['parity'] else 'FAIL':>7s}"
        )
    external = report.get("external")
    if external is not None:
        print(
            f"external fleet ({external['workers']} workers): "
            f"{external['items_per_s']:.1f} items/s, parity "
            f"{'ok' if external['parity'] else 'FAIL'}"
        )
    chaos = report.get("chaos")
    if chaos is not None:
        print(
            f"chaos (SIGKILL mid-job): parity "
            f"{'ok' if chaos['parity'] else 'FAIL'}, "
            f"{chaos['redispatched']} chunk(s) re-dispatched"
        )
    print(
        f"speedup {report['speedup']:.2f}x "
        f"at {report['sweeps'][-1]['workers']} workers"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=("smoke", "full"))
    parser.add_argument("--items", type=int, default=None)
    parser.add_argument(
        "--workers",
        default=None,
        help="comma-separated worker counts for the scaling sweep "
        "(default: 1,4 at smoke, else 1,2,4)",
    )
    parser.add_argument(
        "--exec-delay",
        type=float,
        default=None,
        help="artificial per-item seconds each worker sleeps per chunk, "
        "emulating model-execution latency (default: 0.04 smoke, 0.05 full)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--external-workers",
        default=None,
        help="host:port,host:port list of already-running cluster-worker "
        "processes to measure in addition to the self-spawned fleets",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="SIGKILL one self-spawned worker mid-job and require parity "
        "plus at least one re-dispatched chunk",
    )
    parser.add_argument("--json", default=None, help="write the report here")
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="exit nonzero unless the widest fleet reaches this multiple "
        f"of 1-worker throughput (the issue bar is {TARGET_SCALING_SPEEDUP})",
    )
    args = parser.parse_args(argv)

    smoke = args.scale == "smoke"
    n_items = args.items or (24 if smoke else 64)
    counts = tuple(
        int(part) for part in args.workers.split(",") if part.strip()
    ) if args.workers else ((1, 4) if smoke else (1, 2, 4))
    exec_delay = args.exec_delay if args.exec_delay is not None else (
        0.04 if smoke else 0.05
    )
    repeats = args.repeats if args.repeats is not None else (1 if smoke else 2)
    external = tuple(
        part.strip()
        for part in (args.external_workers or "").split(",")
        if part.strip()
    )

    report = run(
        args.scale, n_items, counts, exec_delay, repeats, external, args.chaos
    )
    print_report(report)

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report -> {args.json}")

    if not report["parity"]:
        print("FAIL: cluster traces diverged from SerialBackend")
        return 1
    if args.chaos and not report["chaos"]["survived"]:
        print("FAIL: chaos run finished without re-dispatching any chunk")
        return 1
    if args.assert_speedup is not None and report["speedup"] < args.assert_speedup:
        print(
            f"FAIL: scaling speedup {report['speedup']:.2f}x below required "
            f"{args.assert_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
