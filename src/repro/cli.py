"""Command-line interface for the library.

Subcommands mirror the adoption workflow:

* ``record``   — execute the zoo on a generated dataset and store the
  ground-truth archive (the paper's offline data-collection step);
* ``train``    — train a DRL value-prediction agent on an archive;
* ``schedule`` — label items from an archive with a trained agent under
  optional deadline / memory budgets;
* ``zoo``      — print the Table I summary of the model zoo;
* ``graph``    — build the model-relationship graph and print its
  strongest learned relationships (the auto-learned Table II);
* ``serve``    — run the micro-batching labeling service over a generated
  stream of concurrent client requests and print its telemetry report;
  ``--metrics-port`` additionally serves live Prometheus/JSON metrics and
  request traces over HTTP while the run is in flight;
* ``trace``    — tail finished request-trace spans from a running
  ``serve --metrics-port`` endpoint (or from a ``--trace-export`` file);
* ``cluster-worker`` — run one scheduling worker process for
  ``--backend cluster`` (the dispatcher ships it the world on connect;
  point ``--workers host:port,host:port`` at the printed addresses).

``--log-level`` turns on stdlib logging for the ``repro.*`` loggers
(service lifecycle, worker-pool respawns, cluster re-dispatches, cache
evictions); the library itself ships only a NullHandler.

Example::

    python -m repro.cli record --dataset mscoco2017 --items 500 --out gt.npz
    python -m repro.cli train --truth gt.npz --algo dueling_dqn --out agent.npz
    python -m repro.cli schedule --truth gt.npz --agent agent.npz --deadline 0.5
    python -m repro.cli serve --items 128 --clients 4 --rate 400 --max-wait 0.02
    python -m repro.cli serve --items 256 --metrics-port 9109 &
    python -m repro.cli trace --url http://127.0.0.1:9109 --follow
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import closing

import numpy as np

from repro.config import TrainConfig, WorldConfig
from repro.data.datasets import generate_dataset
from repro.engine import (
    BACKEND_REGISTRY,
    ClusterConfig,
    LabelingEngine,
    ProcessConfig,
)
from repro.graph import build_relationship_graph
from repro.labels import build_label_space
from repro.persistence import load_ground_truth, save_ground_truth
from repro.rl.agents import AGENT_REGISTRY, make_agent
from repro.rl.training import train_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.spec import LabelingSpec
from repro.zoo.builder import build_zoo


def _world(args) -> tuple:
    config = WorldConfig(vocab_scale=args.scale, seed=args.seed)
    space = build_label_space(config.vocab_scale)
    zoo = build_zoo(config, space)
    return config, space, zoo


def _workers_arg(value: str):
    """argparse type for --workers: a pool size or a host:port list."""
    if ":" in value:
        addresses = tuple(part.strip() for part in value.split(",") if part.strip())
        if not addresses:
            raise argparse.ArgumentTypeError("empty worker address list")
        return addresses
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a pool size or a host:port[,host:port...] list, "
            f"got {value!r}"
        ) from None


def _backend(args):
    """Typed backend config (or registry name) from --backend/--workers.

    ``--workers`` sizes the process pool.  With ``--backend
    cluster`` it instead controls the fleet: an integer spawns that many
    local worker processes, while a comma-separated ``host:port`` list
    connects to already-running ``cluster-worker`` processes.
    """
    workers = getattr(args, "workers", None)
    addresses = workers if isinstance(workers, tuple) else ()
    count = workers if isinstance(workers, int) else None
    if addresses and args.backend != "cluster":
        raise SystemExit(
            f"--workers {','.join(addresses)}: host:port worker lists "
            f"require --backend cluster"
        )
    if args.backend == "process":
        return ProcessConfig(max_workers=count)
    if args.backend == "cluster":
        if addresses:
            return ClusterConfig(workers=addresses)
        return ClusterConfig(local_workers=count or 2)
    return args.backend


def _service_workers(args) -> int:
    """Service worker-thread count from the (possibly address-list) flag."""
    workers = getattr(args, "workers", None)
    if isinstance(workers, tuple):
        return max(2, len(workers))
    return workers if workers is not None else 2


def _predictor(args, space, zoo) -> AgentPredictor:
    """The --algo/--hidden agent (``--agent`` loads trained weights)."""
    agent = make_agent(
        args.algo, obs_dim=len(space), n_actions=len(zoo) + 1, hidden_size=args.hidden
    )
    if args.agent is not None:
        agent.load(args.agent)
    return AgentPredictor(agent, len(zoo))


def _build_service(args, **overrides):
    """The service ``serve`` and ``gateway`` run, from their shared flags:
    world → recorded truth → agent → engine → ``LabelingService``, with
    ``overrides`` for the constructor arguments a command sets itself.
    Returns ``(service, dataset)``.  The engine runs on the backend the
    flags name (with ``--backend process`` scheduling runs in --workers
    processes while queue/cache/truth bookkeeping stays here); the
    calling command closes it in its ``finally``.
    """
    from repro.serving import LabelingService
    from repro.zoo.oracle import GroundTruth

    if args.recover and args.journal is None:
        raise SystemExit("--recover requires --journal")
    config, space, zoo = _world(args)
    dataset = generate_dataset(space, config, args.dataset, args.items)
    # Record once up front (the paper's record-then-replay protocol), so
    # the run measures serving + scheduling, never the one-off zoo
    # execution.
    truth = GroundTruth(zoo, dataset, config)
    engine = LabelingEngine(
        zoo, _predictor(args, space, zoo), config, backend=_backend(args)
    )
    # gateway keeps its admission WAL in a subdirectory of --journal
    overrides.setdefault("journal", args.journal)
    service = LabelingService(
        engine,
        batch_size=args.batch_size,
        max_wait=args.max_wait,
        workers=_service_workers(args),
        max_depth=args.max_depth,
        truth=truth,
        cache_size=args.cache_size or None,
        journal_fsync=args.journal_fsync,
        **overrides,
    )
    return service, dataset


def _recover(service) -> None:
    """``--recover``: replay the journal's backlog and print the report."""
    report = service.recover()
    print(
        f"recovery: {report.replayed} journaled request(s) "
        f"replayed, {report.recovered} recovered, "
        f"{report.failed} failed ({report.duration:.3f}s)"
    )


def _print_report(service):
    """Telemetry, cache and journal lines; returns the snapshot printed."""
    snapshot = service.snapshot()
    print(snapshot.format())
    if service.cache is not None:
        print(f"  result cache {service.cache.stats().format()}")
    if service.journal is not None:
        jstats = service.journal.stats()
        print(
            f"  journal     {jstats.admitted} admitted, "
            f"{sum(jstats.terminals.values())} terminals, "
            f"{jstats.pending} pending, {jstats.fsyncs} fsyncs"
        )
    return snapshot


def cmd_record(args) -> int:
    config, space, zoo = _world(args)
    dataset = generate_dataset(space, config, args.dataset, args.items)
    from repro.zoo.oracle import GroundTruth

    truth = GroundTruth(zoo, dataset, config)
    save_ground_truth(truth, args.out)
    print(
        f"recorded {len(truth)} items x {len(zoo)} models -> {args.out} "
        f"(useful executions: {truth.useful_execution_fraction():.1%})"
    )
    return 0


def cmd_train(args) -> int:
    try:
        train_config = TrainConfig(episodes=args.episodes, hidden_size=args.hidden)
    except ValueError as exc:
        raise SystemExit(f"train: {exc}") from None
    config, _, zoo = _world(args)
    truth = load_ground_truth(zoo, args.truth, config)
    item_ids = list(truth.item_ids)
    train_ids, _ = _split_ids(item_ids, args.seed)
    result = train_agent(args.algo, truth, train_ids, config=train_config)
    result.agent.save(args.out)
    returns = result.smoothed_returns(20)
    tail = float(returns[-1]) if len(returns) else float("nan")
    print(
        f"trained {args.algo} for {args.episodes} episodes "
        f"({result.total_steps} steps, final smoothed return {tail:.2f}) "
        f"-> {args.out}"
    )
    return 0


def cmd_schedule(args) -> int:
    from pathlib import Path

    # Every flag is checked before the truth, agent or manifest is touched.
    try:
        if args.resume and args.manifest is None:
            raise ValueError("--resume requires --manifest")
        if args.items < 1:
            raise ValueError("--items must be >= 1")
        spec = LabelingSpec(deadline=args.deadline, memory_budget=args.memory)
    except ValueError as exc:
        raise SystemExit(f"schedule: {exc}") from None
    config, space, zoo = _world(args)
    truth = load_ground_truth(zoo, args.truth, config)
    predictor = _predictor(args, space, zoo)
    _, eval_ids = _split_ids(list(truth.item_ids), args.seed)
    eval_ids = eval_ids[: args.items]

    # --manifest makes the run resumable: the full item list and every
    # completion are persisted (atomically), so a killed run picks up
    # with --resume exactly where it stopped, mid-trace.
    manifest = None
    already_done = 0
    if args.manifest is not None:
        from repro.durability import RunManifest

        params = {
            "truth": args.truth,
            "agent": args.agent,
            "deadline": args.deadline,
            "memory": args.memory,
            "scale": args.scale,
            "seed": args.seed,
            "items": args.items,
        }
        if args.resume:
            manifest = RunManifest.load(args.manifest)
            if manifest.params != params:
                print(
                    "warning: flags differ from the manifest's recorded "
                    "run parameters; using the manifest's item list anyway",
                    file=sys.stderr,
                )
            already_done = manifest.done
            eval_ids = manifest.remaining
            print(
                f"resuming {args.manifest}: {already_done} item(s) already "
                f"done, {len(eval_ids)} remaining"
            )
            if not eval_ids:
                print("nothing left to schedule")
                return 0
        elif Path(args.manifest).exists():
            raise SystemExit(
                f"{args.manifest} already exists; pass --resume to continue "
                f"that run (or remove the file to start over)"
            )
        else:
            manifest = RunManifest.create(args.manifest, eval_ids, params)

    engine = LabelingEngine(
        zoo,
        predictor,
        config,
        backend=_backend(args),
        batch_size=args.batch_size,
    )
    items = [truth.record(item_id).item for item_id in eval_ids]
    recalls = []
    try:
        stream = engine.label_stream(items, spec, truth=truth)
        with closing(stream):  # in-flight runs land before the backend closes
            for result in stream:
                recalls.append(result.trace.recall_by(args.deadline))
                if manifest is not None:
                    manifest.mark_done(
                        result.item_id, {"recall": round(recalls[-1], 6)}
                    )
                if args.verbose:
                    models = ", ".join(result.models_executed)
                    print(f"{result.item_id}: recall {recalls[-1]:.1%} [{models}]")
    finally:
        if manifest is not None:
            manifest.save()
        engine.backend.close()
    resumed = f" ({already_done} resumed from manifest)" if already_done else ""
    print(
        f"scheduled {len(eval_ids)} items under deadline={args.deadline}s"
        + (f", memory={args.memory}MB" if args.memory is not None else "")
        + f" [{args.backend} backend, batch {args.batch_size}]"
        + f": mean value recall {np.mean(recalls):.1%}"
        + resumed
    )
    return 0


def cmd_zoo(args) -> int:
    _, space, zoo = _world(args)
    print(f"{'model':26s} {'task':24s} {'time':>7s} {'memory':>9s}")
    for model in zoo:
        print(
            f"{model.name:26s} {model.task:24s} {model.time * 1000:5.0f}ms "
            f"{model.mem:7.0f}MB"
        )
    print(
        f"\n{len(zoo)} models, {len(space)} labels, "
        f"{zoo.total_time:.2f}s to execute everything"
    )
    return 0


def cmd_graph(args) -> int:
    config, _, zoo = _world(args)
    truth = load_ground_truth(zoo, args.truth, config)
    graph = build_relationship_graph(truth)
    print("strongest learned model relationships (lift of usefulness):")
    for source, target, lift in graph.strongest_edges(args.top):
        print(f"  {source:26s} -> {target:26s} lift {lift:5.2f}")
    exported = graph.to_networkx(min_lift_ratio=args.min_lift)
    print(
        f"\nnetworkx export at min lift ratio {args.min_lift}: "
        f"{exported.number_of_nodes()} nodes, "
        f"{exported.number_of_edges()} edges"
    )
    return 0


def cmd_serve(args) -> int:
    import signal
    import threading
    import time

    from repro.serving import DeadlineExpired, QueueFull

    # Observability is opt-in: --metrics-port serves /metrics live,
    # --trace-export dumps the span ring at exit; either one turns on
    # the registry + tracer + scheduler-tick instrumentation.
    observing = args.metrics_port is not None or args.trace_export is not None
    registry = tracer = metrics_gateway = None
    if observing:
        from repro.obs import MetricsRegistry, TraceBuffer, install

        registry = MetricsRegistry()
        tracer = TraceBuffer(capacity=args.trace_buffer)

    if args.mixed_regimes:
        # Three client populations, three scheduling regimes, one service:
        # the dispatcher groups them into homogeneous batches by batch_key.
        deadline = args.deadline if args.deadline is not None else 0.5
        memory = args.memory if args.memory is not None else 8000.0
        client_specs = [
            LabelingSpec(),
            LabelingSpec(deadline=deadline),
            LabelingSpec(deadline=deadline, memory_budget=memory),
        ]
        service_spec = LabelingSpec()
    else:
        client_specs = None
        service_spec = LabelingSpec(deadline=args.deadline, memory_budget=args.memory)
    service, dataset = _build_service(
        args,
        overflow=args.overflow,
        spec=service_spec,
        registry=registry,
        tracer=tracer,
    )
    if observing:
        install(registry)

    items = list(dataset)
    if args.metrics_port is not None:
        from repro.serving.gateway import LabelingGateway, TenantDirectory

        # The obs routes have one implementation, the gateway's listener;
        # the demo roster and the dataset-as-catalog satisfy its
        # constructor, and the label routes come along on the same port.
        metrics_gateway = LabelingGateway(
            service, TenantDirectory.demo(1), dataset, port=args.metrics_port
        ).start_background()
        print(
            f"metrics: {metrics_gateway.url}/metrics  "
            f"traces: {metrics_gateway.url}/traces"
        )

    # Graceful shutdown: SIGTERM/SIGINT stop the load generators, then
    # the normal drain (bounded by --drain-timeout) and report run —
    # acknowledged work completes, the journal flushes, and we exit 0.
    stopping = threading.Event()

    def handle_signal(signum, frame) -> None:
        print(
            f"received {signal.Signals(signum).name}: stopping clients and "
            f"draining (timeout {args.drain_timeout:.0f}s)",
            flush=True,
        )
        stopping.set()

    previous_handlers = {
        sig: signal.signal(sig, handle_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }

    def client(index: int) -> None:
        # Each client replays its slice of the stream at ~rate/clients
        # requests/sec with seeded jitter, mimicking independent callers.
        # --repeat > 1 resubmits the slice; with --cache-size the repeat
        # rounds are answered from the result cache without scheduling.
        rng = np.random.default_rng(args.seed + index)
        gap = args.clients / args.rate if args.rate > 0 else 0.0
        base = (
            client_specs[index % len(client_specs)]
            if client_specs is not None
            else service.default_spec
        )
        for item in list(items[index :: args.clients]) * args.repeat:
            if stopping.is_set():
                return
            try:
                service.submit(
                    item,
                    base.with_(priority=int(rng.integers(3))),
                    deadline=args.request_deadline,
                )
            except (QueueFull, DeadlineExpired):
                pass  # telemetry counts rejected/expired; keep submitting
            if gap:
                time.sleep(float(gap * rng.uniform(0.5, 1.5)))

    try:
        with service:
            if args.recover:
                _recover(service)
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(args.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.drain(args.drain_timeout if stopping.is_set() else None)
        regimes = (
            "mixed regimes (qgreedy + deadline + deadline_memory)"
            if args.mixed_regimes
            else f"regime {service_spec.regime}"
        )
        print(
            f"served {args.items} generated items from {args.clients} clients "
            f"at ~{args.rate:.0f} req/s, {regimes} "
            f"[batch {args.batch_size}, max_wait {args.max_wait * 1000:.0f}ms, "
            f"{_service_workers(args)} workers, {args.backend} backend]"
        )
        snapshot = _print_report(service)
        if tracer is not None:
            print(
                f"  traces      {tracer.finished} finished, "
                f"{len(tracer)} in ring, {tracer.dropped} dropped"
            )
        if args.trace_export is not None:
            with open(args.trace_export, "w") as fh:
                fh.write(tracer.to_json())
            print(f"  trace ring exported to {args.trace_export}")
        if metrics_gateway is not None and args.metrics_linger > 0:
            # Keep the endpoint up after drain so an external scraper
            # (CI smoke, a curious operator) can read the final families.
            print(
                f"metrics endpoint lingering {args.metrics_linger:.0f}s "
                f"at {metrics_gateway.url}/metrics"
            )
            time.sleep(args.metrics_linger)
        return 0 if snapshot.counters["failed"] == 0 else 1
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
        service.engine.backend.close()
        if metrics_gateway is not None:
            metrics_gateway.stop_background()
        if observing:
            from repro.obs import uninstall

            uninstall()


def cmd_gateway(args) -> int:
    import asyncio
    import contextlib
    import signal
    from pathlib import Path

    from repro.obs import MetricsRegistry, TraceBuffer, install, uninstall
    from repro.serving import RequestQueue
    from repro.serving.gateway import LabelingGateway, TenantDirectory

    # Tenant roster: explicit file > environment JSON > demo roster.
    show_keys = False
    if args.tenants_file is not None:
        directory = TenantDirectory.from_file(args.tenants_file)
    elif os.environ.get("REPRO_GATEWAY_TENANTS"):
        directory = TenantDirectory.from_env()
    else:
        directory = TenantDirectory.demo(args.demo_tenants)
        show_keys = True  # demo keys are public by construction

    registry = MetricsRegistry()
    tracer = TraceBuffer(capacity=args.trace_buffer)
    # One --journal directory holds both durability domains: the
    # service's admission WAL and the gateway's job store.
    journal_dir = Path(args.journal) if args.journal is not None else None
    service, dataset = _build_service(
        args,
        registry=registry,
        tracer=tracer,
        journal=journal_dir / "service" if journal_dir else None,
        # Tenant-fair dispatch: the queue's tenant stride takes its
        # weights from the roster.
        queue_factory=lambda **kw: RequestQueue(
            tenant_weights=directory.weights(), **kw
        ),
    )
    print(f"{'tenant':<12} {'weight':>6} {'rate':>8} {'burst':>6} "
          f"{'inflight':>8}" + ("  api_key" if show_keys else ""))
    for tenant in directory:
        rate = "inf" if tenant.rate == float("inf") else f"{tenant.rate:.0f}"
        row = (
            f"{tenant.name:<12} {tenant.weight:>6.1f} {rate:>8} "
            f"{tenant.burst:>6} {tenant.max_inflight:>8}"
        )
        print(row + (f"  {tenant.api_key}" if show_keys else ""))

    install(registry)
    gateway = LabelingGateway(
        service,
        directory,
        dataset,
        host=args.host,
        port=args.port,
        job_dir=journal_dir / "jobs" if journal_dir else None,
    )

    async def run() -> None:
        await gateway.start_async()
        print(
            f"gateway listening at {gateway.url}  "
            f"({len(gateway.catalog)} items, {len(directory)} tenants)",
            flush=True,
        )
        # SIGTERM and SIGINT both mean "stop accepting, drain, exit 0":
        # the event breaks this loop, then the drain below (bounded by
        # --drain-timeout) settles in-flight work and flushes journals.
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(sig, stop_event.set)
        try:
            if args.duration is not None:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(stop_event.wait(), args.duration)
            else:
                await stop_event.wait()
            if stop_event.is_set():
                print(
                    f"shutdown signal: draining (timeout "
                    f"{args.drain_timeout:.0f}s)",
                    flush=True,
                )
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.remove_signal_handler(sig)
            await gateway.stop_async()

    try:
        with service:
            if args.recover:
                _recover(service)
            try:
                asyncio.run(run())
            except KeyboardInterrupt:
                pass
            service.drain(args.drain_timeout)
        _print_report(service)
        return 0
    finally:
        service.engine.backend.close()
        uninstall()


def cmd_cluster_worker(args) -> int:
    from repro.engine import ClusterWorker

    worker = ClusterWorker(
        host=args.host, port=args.port, delay_per_item=args.delay_per_item
    )
    # The dispatcher ships the world on connect, so the worker is
    # stateless here: print the address for --backend cluster
    # --workers host:port lists and block in the accept loop.
    print(f"cluster worker listening at {worker.address}", flush=True)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        worker.stop()
    return 0


def _format_trace(trace: dict) -> str:
    """One human line per exported trace dict (the JSON span schema)."""
    timeline = "  ".join(
        event["stage"]
        + (
            f"({event['detail']['reason']})"
            if "reason" in event.get("detail", {})
            else ""
        )
        + f"+{event['t'] * 1000:.1f}ms"
        for event in trace["events"]
    )
    return (
        f"#{trace['trace_id']} {trace['item_id']} regime={trace['regime']} "
        f"status={trace['status'] or 'live'} "
        f"{trace['duration_s'] * 1000:.1f}ms  {timeline}"
    )


def cmd_trace(args) -> int:
    import json
    import time
    import urllib.error
    import urllib.request

    if (args.url is None) == (args.file is None):
        print("pass exactly one of --url or --file", file=sys.stderr)
        return 2
    if args.follow and args.url is None:
        print("--follow requires --url (a live endpoint)", file=sys.stderr)
        return 2

    def fetch() -> dict:
        if args.file is not None:
            with open(args.file) as fh:
                return json.load(fh)
        query = f"?n={args.limit}" if args.limit is not None else ""
        url = args.url.rstrip("/") + "/traces" + query
        with urllib.request.urlopen(url, timeout=10) as response:
            return json.load(response)

    last_seen = 0
    try:
        while True:
            try:
                payload = fetch()
            except (urllib.error.URLError, OSError) as exc:
                print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
                return 1
            traces = payload.get("traces", [])
            if args.limit is not None:
                traces = traces[-args.limit :]
            for trace in traces:
                # In follow mode only print spans newer than the last poll;
                # trace ids are monotonic, so this is an exact cursor.
                if trace["trace_id"] > last_seen:
                    print(_format_trace(trace))
                    last_seen = trace["trace_id"]
            if not args.follow:
                print(
                    f"{payload.get('finished', len(traces))} finished "
                    f"trace(s), {payload.get('dropped', 0)} dropped from a "
                    f"ring of {payload.get('capacity', '?')}"
                )
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _split_ids(item_ids: list[str], seed: int) -> tuple[list[str], list[str]]:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(item_ids))
    n_train = max(1, len(item_ids) // 5)
    train = [item_ids[i] for i in sorted(perm[:n_train])]
    test = [item_ids[i] for i in sorted(perm[n_train:])]
    return train, test


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--scale", default="full", choices=("full", "mini"))
    parser.add_argument("--seed", type=int, default=20200208)
    parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable stderr logging for the repro.* loggers at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="execute the zoo and store ground truth")
    p.add_argument("--dataset", required=True)
    p.add_argument("--items", type=int, default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("train", help="train a value-prediction agent")
    p.add_argument("--truth", required=True)
    p.add_argument("--algo", default="dueling_dqn", choices=sorted(AGENT_REGISTRY))
    p.add_argument("--episodes", type=int, default=400)
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("schedule", help="label items under budgets")
    p.add_argument("--truth", required=True)
    p.add_argument("--agent", required=True)
    p.add_argument("--algo", default="dueling_dqn", choices=sorted(AGENT_REGISTRY))
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--deadline", type=float, default=0.5)
    p.add_argument(
        "--memory-budget",
        "--memory",
        dest="memory",
        type=float,
        default=None,
        help="GPU-memory budget in MB (Algorithm 2; requires --deadline)",
    )
    p.add_argument("--items", type=int, default=50)
    p.add_argument("--backend", default="batched", choices=sorted(BACKEND_REGISTRY))
    p.add_argument(
        "--workers",
        type=_workers_arg,
        default=None,
        help="pool size for --backend process/cluster (default: cpu "
        "count; cluster: 2), or a host:port,host:port list of running "
        "cluster-worker processes for --backend cluster",
    )
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--verbose", action="store_true")
    p.add_argument(
        "--manifest",
        default=None,
        help="persist run progress to this JSON manifest so a killed run "
        "can continue with --resume",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume the run recorded in --manifest, scheduling only the "
        "items not yet marked done",
    )
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("zoo", help="print the model zoo (Table I)")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("graph", help="model-relationship graph from a recording")
    p.add_argument("--truth", required=True)
    p.add_argument("--top", type=int, default=15)
    p.add_argument("--min-lift", type=float, default=1.5)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser(
        "serve", help="run the micro-batching service over a generated stream"
    )
    _add_service_flags(
        p,
        cache_size=0,
        workers="engine worker threads; with --backend process/cluster also "
        "the number of scheduling worker processes, or a "
        "host:port,host:port list of running cluster-worker processes "
        "for --backend cluster",
        cache="result-cache capacity keyed by (item, batch_key); "
        "0 disables the cache",
        trace_buffer="finished request-trace spans kept in the ring",
    )
    p.add_argument("--clients", type=int, default=4)
    p.add_argument(
        "--rate", type=float, default=400.0, help="aggregate requests/sec (0 = asap)"
    )
    p.add_argument("--overflow", default="block", choices=("block", "reject"))
    p.add_argument(
        "--deadline", type=float, default=None, help="scheduling deadline per item"
    )
    p.add_argument(
        "--memory-budget",
        "--memory",
        dest="memory",
        type=float,
        default=None,
        help="GPU-memory budget in MB (Algorithm 2; requires --deadline)",
    )
    p.add_argument(
        "--mixed-regimes",
        action="store_true",
        help="split clients across qgreedy / deadline / deadline+memory "
        "specs to exercise homogeneous-batch grouping",
    )
    p.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        help="per-request admission budget, seconds",
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="times each client replays its item slice (repeat rounds "
        "hit the result cache when --cache-size is set)",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve /metrics, /metrics.json, and /traces on this port "
        "while running (0 = pick an ephemeral port)",
    )
    p.add_argument(
        "--metrics-linger",
        type=float,
        default=0.0,
        help="keep the metrics endpoint up this many seconds after the "
        "run drains, so external scrapers can read the final families",
    )
    p.add_argument(
        "--trace-export",
        default=None,
        help="write the trace ring as JSON to this path at exit",
    )
    _add_durability_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "gateway",
        help="run the multi-tenant HTTP gateway over a recorded catalog",
    )
    _add_service_flags(
        p,
        cache_size=1024,
        items="catalog size to record and serve",
        workers="worker threads / scheduling processes, or a host:port list "
        "for --backend cluster",
        cache="result-cache capacity (tenant-partitioned); 0 disables",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve this many seconds then exit (default: until interrupted)",
    )
    p.add_argument(
        "--tenants-file",
        default=None,
        help="tenant roster JSON (see repro.serving.gateway.auth); "
        "falls back to $REPRO_GATEWAY_TENANTS, then --demo-tenants",
    )
    p.add_argument(
        "--demo-tenants",
        type=int,
        default=3,
        help="size of the deterministic demo roster used when no "
        "tenant config is given (keys demo-key-tenant-N)",
    )
    _add_durability_flags(p)
    p.set_defaults(func=cmd_gateway)

    p = sub.add_parser(
        "cluster-worker",
        help="run one cluster scheduling worker for --backend cluster",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    p.add_argument(
        "--delay-per-item",
        type=float,
        default=0.0,
        help="artificial per-item seconds after each chunk's scheduling "
        "pass, emulating model-execution latency (benchmarking aid)",
    )
    p.set_defaults(func=cmd_cluster_worker)

    p = sub.add_parser(
        "trace", help="tail request-trace spans from a serve endpoint or file"
    )
    p.add_argument(
        "--url",
        default=None,
        help="base URL of a running serve --metrics-port endpoint "
        "(e.g. http://127.0.0.1:9109)",
    )
    p.add_argument(
        "--file", default=None, help="read a serve --trace-export JSON file"
    )
    p.add_argument(
        "--limit", type=int, default=None, help="show at most the last N spans"
    )
    p.add_argument(
        "--follow",
        action="store_true",
        help="poll --url and stream new spans until interrupted",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="poll period in seconds for --follow",
    )
    p.set_defaults(func=cmd_trace)
    return parser


def _add_service_flags(
    p: argparse.ArgumentParser,
    *,
    cache_size: int,
    items: str | None = None,
    workers: str,
    cache: str,
    trace_buffer: str | None = None,
) -> None:
    """The world/engine/service flags shared by ``serve`` and ``gateway``
    (what :func:`_build_service` reads); the keyword arguments are the
    command's ``--cache-size`` default and its own help wording."""
    p.add_argument("--dataset", default="mscoco2017")
    p.add_argument("--items", type=int, default=128, help=items)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument(
        "--max-wait", type=float, default=0.02, help="flush timer, seconds"
    )
    p.add_argument("--workers", type=_workers_arg, default=2, help=workers)
    p.add_argument("--max-depth", type=int, default=1024)
    p.add_argument("--cache-size", type=int, default=cache_size, help=cache)
    p.add_argument("--backend", default="batched", choices=sorted(BACKEND_REGISTRY))
    p.add_argument("--agent", default=None, help="optional trained agent .npz")
    p.add_argument("--algo", default="dueling_dqn", choices=sorted(AGENT_REGISTRY))
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--trace-buffer", type=int, default=512, help=trace_buffer)


def _add_durability_flags(p: argparse.ArgumentParser) -> None:
    """The crash-safety flags shared by ``serve`` and ``gateway``."""
    p.add_argument(
        "--journal",
        default=None,
        help="write-ahead journal directory; admitted requests survive a "
        "crash and replay on --recover (gateway jobs resume on start)",
    )
    p.add_argument(
        "--journal-fsync",
        default="batch",
        choices=("none", "batch", "always"),
        help="fsync policy: always = every admission durable before its "
        "submit returns; batch = fsync at micro-batch boundaries "
        "(default); none = leave syncing to the OS",
    )
    p.add_argument(
        "--recover",
        action="store_true",
        help="before serving, replay journaled admissions that never "
        "reached a terminal (requires --journal)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight work when a shutdown signal "
        "arrives before exiting anyway",
    )


def _configure_logging(level: str | None) -> None:
    """Wire the repro.* loggers to stderr when --log-level asks for it."""
    if level is None:
        return
    handler = logging.StreamHandler()
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
    )
    root = logging.getLogger("repro")
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper()))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
