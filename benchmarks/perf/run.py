#!/usr/bin/env python3
"""The perf ledger's one command.

Two ways to call it (see README.md beside this file):

* ``run.py [--seed N] [--workload NAME] [--trace] [--smoke] [--out FILE]``
  runs every workload (or the named one), each in its own subprocess
  with a timeout, prints every metric with its unit and writes one result
  JSON; ``--compare A.json B.json`` and ``--check-repeat`` judge results
  by the bounds in ``BENCHMARK.json``.
* ``run.py --in-process --workload NAME --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as its last line, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
  end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1``.  This is the form ``BENCHMARK.json`` names and the form
  the suite spawns.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads size themselves to the cores, and a BLAS
# pool would oversubscribe them.  Must precede the first numpy import.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

PROCESS_STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfledger import stats  # noqa: E402

DEFAULT_SEED = 20200208
#: A workload subprocess still running after this long is killed and
#: reported failed, never waited on.
WORKLOAD_TIMEOUT_S = 170.0
#: Windows each side of the traced pass takes, alternating.
TRACED_ROUNDS = 3
#: Beyond these the load generator, not the program, shaped ``req_*``.
LOADGEN_LIMITS = {"loadgen.lag_p99_ms": 10.0, "loadgen.cpu_share": 0.5}
#: Deterministic for a seed: between results of one seed, a drop beyond
#: this is a regression whatever the relative bound allows.
EXACT_METRICS = {"label_recall": 1e-9}
#: Worse by the bound *and* by more than this many units to be a regression.
ABSOLUTE_FLOORS = {"setup_s": 0.5}
#: A tail below this percentile (too few samples for the ten-beyond rule)
#: is reported under the ``req_p99_ms`` name but never gated.
GATED_TAIL = 99.0


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def temp_dir() -> Path:
    """A fresh scratch directory (removed on exit).

    Inside the checkout, not the system's temp directory: a benchmark run
    may read and write nowhere else.
    """
    return Path(tempfile.mkdtemp(dir=ROOT, prefix=".bench_tmp-"))


def reap_resource_tracker() -> None:
    """Stop and reap multiprocessing's shm resource tracker, if one started.

    The tracker is a helper process the shm transport's ``SharedMemory``
    spawns; by design it outlives its parent, which would leave a process
    this run started un-waited.  There is no public handle on it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def raise_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks tear down."""

    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


# -- one workload, in this process -------------------------------------------


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def metric(value, unit, **detail) -> dict:
    return {"value": float(value), "unit": unit, **detail}


def loadgen_health(windows) -> dict[str, float]:
    """How late open-loop sends ran, and the generator's share of a core."""
    lags = [lag for w in windows for lag in w.extra.get("lags", ())]
    cpu = sum(w.extra.get("cpu", 0.0) for w in windows)
    wall = sum(w.extra.get("gen_wall", 0.0) for w in windows)
    return {
        "loadgen.lag_p99_ms": stats.percentile(lags, 99) * 1e3 if lags else 0.0,
        "loadgen.cpu_share": cpu / wall if wall else 0.0,
    }


def freeze_heap() -> None:
    """What set-up allocated is here to stay: keep the collector from
    walking it (a ~70 ms pause) in the middle of a timed window."""
    gc.collect()
    gc.freeze()


def run_untraced(workload, ready_s: float, setup_reps: int) -> dict:
    """Set up ``setup_reps`` times, time the windows, check; e2e metrics.

    ``ready_s`` is what came before the first set-up and cannot be redone
    in one process — start to imports done and world built — and is part
    of every ``setup_s`` repetition.
    """
    setups = []
    try:
        for rep in range(setup_reps):
            if rep:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            setups.append(ready_s + time.perf_counter() - started)
        freeze_heap()
        measured = workload.measure()
        compared, wrong = workload.check()
    finally:
        workload.teardown()

    windows, aux = measured.windows, measured.aux
    rates = [w.items / w.wall for w in windows]
    scored = windows + aux
    # The windows' samples pooled give the median and decide which tail
    # percentile is supported.  The tail's value is the lowest of the
    # windows' own readings of it: on a shared disk one journal fsync in a
    # few thousand stalls for 100-150 ms, which sets the tail of whichever
    # window it lands in (two of the three in two runs of ten here).
    pooled = [sample for group in measured.latencies for sample in group]
    used, _ = stats.tail(pooled)
    tails = [stats.percentile(group, used) for group in measured.latencies]
    return {
        "correct": not workload.problems,
        "problems": workload.problems,
        "attempted": sum(w.attempted for w in windows + aux) + compared,
        "failed": sum(w.failed for w in windows + aux) + wrong,
        "health": loadgen_health(windows + aux),
        "metrics": {
            "setup_s": metric(
                statistics.median(setups), "s", reps=setups,
                spread=stats.rel_spread(setups),
            ),
            "items_per_s": metric(
                statistics.median(rates), "items/s", reps=rates,
                spread=stats.rel_spread(rates),
            ),
            "req_p50_ms": metric(
                stats.percentile(pooled, 50) * 1e3, "ms", n=len(pooled),
                reps=[stats.percentile(g, 50) * 1e3 for g in measured.latencies],
            ),
            "req_p99_ms": metric(
                min(tails) * 1e3, "ms", n=len(pooled),
                percentile=used, reps=[value * 1e3 for value in tails],
            ),
            "label_recall": metric(
                sum(w.recall_sum for w in scored) / sum(w.items for w in scored),
                "ratio", n=sum(w.items for w in scored),
            ),
            "peak_rss_mb": metric(peak_rss_mib(), "MiB"),
        },
    }  # fmt: skip


def span_metrics(spans, window) -> dict:
    """Every (a) metric: counts and self times from the proxies' spans."""
    wall = window.ended - window.started
    own = stats.self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def busy(*names):
        return sum(own[s["id"]] for name in names for s in by_name.get(name, ()))

    def total(*names):
        return sum(
            s["end"] - s["start"] for name in names for s in by_name.get(name, ())
        )

    def attr(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    forwards = by_name.get("rl.predict_batch", [])
    runs = by_name.get("engine.backend_run", [])
    run_ids = {s["id"] for s in runs}
    # Scheduling's own time is only visible where the Q-forward is: with
    # worker processes the parent's backend_run span is all waiting.
    in_process = bool(forwards)
    scheduling = busy("engine.backend_run") if in_process else 0.0
    submits = by_name.get("serving.submit", [])
    pops = by_name.get("serving.queue_pop_batch", [])
    roots = ("engine.label_batch", "engine.stream_chunk")
    out = {
        "zoo.record_calls": (len(by_name.get("zoo.record_batch", ())), "count"),
        "zoo.record_items": (attr("zoo.record_batch", "items"), "items"),
        "zoo.record_busy_s": (busy("zoo.record_batch"), "s"),
        "zoo.release_items": (attr("zoo.release_many", "items"), "items"),
        "zoo.release_busy_s": (busy("zoo.release_many"), "s"),
        "rl.forward_calls": (len(forwards), "count"),
        "rl.forward_rows": (attr("rl.predict_batch", "rows"), "rows"),
        "rl.rows_per_call": (
            attr("rl.predict_batch", "rows") / len(forwards) if forwards else 0.0,
            "rows",
        ),
        "rl.forward_busy_s": (busy("rl.predict_batch"), "s"),
        "rl.forward_share": (busy("rl.predict_batch") / wall, "ratio"),
        "scheduling.rounds": (
            sum(1 for s in forwards if s["parent"] in run_ids),
            "count",
        ),
        "scheduling.models_executed": (window.executions, "count"),
        "scheduling.self_s": (scheduling, "s"),
        "scheduling.self_share": (scheduling / wall, "ratio"),
        "engine.label_batch_busy_s": (total(*roots), "s"),
        "engine.self_s": (busy(*roots), "s"),
        "engine.backend_run_s": (total("engine.backend_run"), "s"),
        "serving.submit_us_per_call": (
            total("serving.submit") / len(submits) * 1e6 if submits else 0.0,
            "us",
        ),
        "serving.queue_put_busy_s": (busy("serving.queue_put"), "s"),
        "serving.queue_pop_busy_s": (attr("serving.queue_pop_batch", "cpu"), "s"),
        "serving.queue_pop_wait_s": (
            max(0.0, total("serving.queue_pop_batch") - sum(s["cpu"] for s in pops)),
            "s",
        ),
        "serving.cache_begin_busy_s": (busy("serving.cache_begin"), "s"),
        "serving.cache_settle_busy_s": (busy("serving.cache_settle"), "s"),
        "durability.admit_busy_s": (busy("durability.log_admission"), "s"),
        "durability.terminal_busy_s": (busy("durability.log_terminal"), "s"),
        "durability.flush_busy_s": (busy("durability.flush"), "s"),
    }
    for regime in ("qgreedy", "deadline", "deadline_memory"):
        mine = [s for s in runs if s.get("regime") == regime]
        seconds = sum(s["end"] - s["start"] for s in mine)
        out[f"scheduling.{regime}.items_per_s"] = (
            sum(s["items"] for s in mine) / seconds if seconds else 0.0,
            "items/s",
        )
    return out


def run_traced(cls, world, seed, tmp, trace_out) -> dict:
    """Bare and proxied instances side by side; per-layer metrics.

    Both are set up, then take turns for ``TRACED_ROUNDS`` windows each so
    a slow spell hits both; ``obs.trace_overhead_share`` compares their
    median rates.  The last proxied window is the one attributed.
    """
    from perfledger.probes import run_probes
    from perfledger.tracing import Tracer

    tracer = Tracer()
    bare, traced = cls(world, seed, tmp, None), cls(world, seed, tmp, tracer)
    rates: dict[str, list] = {"bare": [], "traced": []}
    try:
        bare.setup()
        traced.setup()
        freeze_heap()
        for index in range(TRACED_ROUNDS):
            window = bare.traced_window(index)
            rates["bare"].append(window.items / window.wall)
            before = traced.raw_counters()
            window = traced.traced_window(index)
            rates["traced"].append(window.items / window.wall)
        after = traced.raw_counters()
        delta = {key: after[key] - before[key] for key in after}
        layers = span_metrics(tracer.window(window.started, window.ended), window)
        layers.update(traced.layer_metrics(delta, window))
        bare_rate = statistics.median(rates["bare"])
        extras = bare.untraced_extras(bare_rate)
        compared, wrong = traced.check()
    finally:
        bare.teardown()
        traced.teardown()
    if trace_out:
        tracer.dump(trace_out)

    run_s = layers["engine.backend_run_s"][0]
    if "engine.worker_busy_s" in layers:
        # What the parent waited beyond its workers' evenly shared compute.
        layers["engine.parent_wait_s"] = (
            max(0.0, run_s - layers["engine.worker_busy_s"][0] / cls.WORKERS),
            "s",
        )
    health = loadgen_health([window])
    layers.update(extras)
    layers.update(run_probes(world, seed, tmp))
    layers.update(
        {
            "rl.train_s": (world.train_s, "s"),
            "obs.trace_overhead_share": (
                1.0 - statistics.median(rates["traced"]) / bare_rate,
                "ratio",
            ),
            "loadgen.lag_p99_ms": (health["loadgen.lag_p99_ms"], "ms"),
            "loadgen.cpu_share": (health["loadgen.cpu_share"], "ratio"),
            "failed_share": (
                (window.failed + wrong) / (window.attempted + compared),
                "ratio",
            ),
        }
    )
    return {
        "correct": not traced.problems,
        "problems": traced.problems,
        "attempted": window.attempted + compared,
        "failed": window.failed + wrong,
        "health": health,
        "metrics": {name: metric(v, unit) for name, (v, unit) in layers.items()},
    }


def run_workload(args) -> int:
    """The ``BENCHMARK.json`` command: one workload, result on the last line."""
    from perfledger.workloads import WORKLOADS
    from perfledger.world import SCALES, World

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    contract = load_contract()
    raise_on_sigterm()
    scale = SCALES["smoke" if args.smoke else "full"]
    world = World(scale)
    ready_s = time.perf_counter() - PROCESS_STARTED
    tmp = temp_dir()
    try:
        if args.agent:
            world.load_agent(args.agent)
        else:
            world.train()
        cls = WORKLOADS[args.workload]
        if args.trace:
            result = run_traced(cls, world, args.seed, tmp, args.trace_out)
            declared = contract["per_layer"]
        else:
            workload = cls(world, args.seed, tmp, None)
            result = run_untraced(workload, ready_s, scale.setup_reps)
            declared = contract["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        reap_resource_tracker()

    result["name"] = args.workload
    result["ready_s"] = ready_s
    result["train_s"] = world.train_s
    result["wall_s"] = time.perf_counter() - PROCESS_STARTED
    for problem in result["problems"]:
        print(f"CHECK FAILED [{args.workload}] {problem}", file=sys.stderr)
    for name, value in result["health"].items():
        if value > LOADGEN_LIMITS[name]:
            print(
                f"WARNING [{args.workload}] {name} = {value:.3f} > "
                f"{LOADGEN_LIMITS[name]}: the "
                "load generator distorted req_* on this run",
                file=sys.stderr,
            )
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(result, fh)

    # The last line: exactly the declared metrics.  A per-layer metric this
    # workload's layers never produce reads 0 (the layer did no work).
    line = {
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {},
    }
    for spec in declared:
        entry = result["metrics"].get(spec["name"])
        if entry is None and not args.trace:
            raise RuntimeError(f"{args.workload} produced no {spec['name']}")
        value = entry["value"] if entry else 0.0
        line["metrics"][spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload:<16} {spec['name']:<40} {value:>14.6g} {spec['unit']}")
    undeclared = sorted(set(result["metrics"]) - set(line["metrics"]))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    malformed = stats.validate_result(line, [spec["name"] for spec in declared])
    if malformed:
        raise RuntimeError(f"result line breaks its schema: {malformed}")
    print(json.dumps(line))
    return 0 if result["correct"] else 1


# -- every workload, each in its own subprocess ------------------------------


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_PINS},
        "scale": "smoke" if args.smoke else "full",
    }


def kill_group(process: subprocess.Popen) -> None:
    """SIGTERM the child's whole session (it tears down), then SIGKILL."""
    for signum, grace in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(process.pid, signum)
        except ProcessLookupError:
            return
        try:
            process.wait(grace)
            return
        except subprocess.TimeoutExpired:
            continue


def spawn_workload(name, args, agent: Path, tmp: Path, trace: int) -> dict:
    """Run one workload as a subprocess; a hang is killed and reported."""
    detail = tmp / f"{name}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--in-process", "--workload", name,
        "--seed", str(args.seed), "--trace", str(trace), "--agent", str(agent),
        "--detail", str(detail),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    if trace and args.out:
        command += ["--trace-out", f"{args.out}.trace-{name}.json"]
    failure = None
    process = subprocess.Popen(
        command, stdout=subprocess.DEVNULL, start_new_session=True
    )
    try:
        process.wait(WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failure = f"timed out after {WORKLOAD_TIMEOUT_S:.0f}s and was killed"
    finally:
        kill_group(process)  # also on Ctrl-C; a no-op once it has exited
    if failure is None and not detail.exists():
        failure = f"exited with code {process.returncode} and no result"
    if failure:
        print(f"FAILED [{name}] {failure}", file=sys.stderr)
        return {
            "name": name, "correct": False, "problems": [failure],
            "attempted": 1, "failed": 1, "metrics": {},
        }  # fmt: skip
    with open(detail, encoding="utf-8") as fh:
        return json.load(fh)


def run_suite(args) -> dict:
    """Train once, run every workload, print and return the full result."""
    from perfledger.workloads import WORKLOADS
    from perfledger.world import SCALES, World

    raise_on_sigterm()
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = 1 if args.trace else 0
    started = time.perf_counter()
    tmp = temp_dir()
    try:
        world = World(SCALES["smoke" if args.smoke else "full"])
        world.train()
        agent = tmp / "agent.npz"
        world.agent.save(agent)
        workloads = {
            name: spawn_workload(name, args, agent, tmp, trace) for name in names
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if trace:  # the children loaded the agent; only this process trained it
        for workload in workloads.values():
            if "rl.train_s" in workload["metrics"]:
                workload["metrics"]["rl.train_s"]["value"] = world.train_s
    result = {
        "schema": 1,
        "env": environment(args),
        "seed": args.seed,
        "trace": bool(trace),
        "rl.train_s": world.train_s,
        "wall_s": time.perf_counter() - started,
        "workloads": workloads,
    }
    print_result(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    return result


def print_result(result: dict) -> None:
    for name, workload in result["workloads"].items():
        attempted, failed = workload["attempted"], workload["failed"]
        print(
            f"\n== {name}: {'ok' if workload['correct'] else 'INCORRECT'}, "
            f"failed_share {failed / attempted:.4f} ({failed}/{attempted}), "
            f"{workload.get('wall_s', 0.0):.1f} s"
        )
        for metric_name, entry in sorted(workload["metrics"].items()):
            notes = []
            if "reps" in entry:
                notes.append(
                    f"reps {len(entry['reps'])}, min {min(entry['reps']):.4g}, "
                    f"max {max(entry['reps']):.4g}"
                )
            if "n" in entry:
                notes.append(f"n {entry['n']}")
            if "percentile" in entry:
                notes.append(f"p{entry['percentile']:.1f}")
            print(
                f"  {metric_name:<40} {entry['value']:>14.6g} {entry['unit']:<8} "
                + ", ".join(notes)
            )
    print(
        f"\nrl.train_s {result['rl.train_s']:.2f} s, suite wall "
        f"{result['wall_s']:.1f} s, seed {result['seed']}"
    )


def suite_ok(result: dict) -> bool:
    return all(
        w["correct"] and w["failed"] / w["attempted"] <= 0.001
        for w in result["workloads"].values()
    )


# -- compare -----------------------------------------------------------------


def compare(base: dict, new: dict, contract: dict) -> list[dict]:
    """One row per end-to-end metric x workload present on both sides."""
    rows = []
    same_seed = base.get("seed") == new.get("seed")
    for name in base["workloads"]:
        ours = base["workloads"][name]["metrics"]
        theirs = new["workloads"].get(name, {}).get("metrics", {})
        for spec in contract["end_to_end"]:
            a, b = ours.get(spec["name"]), theirs.get(spec["name"])
            if a is None or b is None:
                continue
            verdict = stats.verdict(
                a["value"], b["value"], spec["better"], spec["bound"],
                a.get("reps", ()), b.get("reps", ()),
                ABSOLUTE_FLOORS.get(spec["name"], 0.0),
            )  # fmt: skip
            exact = EXACT_METRICS.get(spec["name"])
            if same_seed and exact is not None and a["value"] - b["value"] > exact:
                verdict = "regression"
            if min(a.get("percentile", 99.0), b.get("percentile", 99.0)) < GATED_TAIL:
                verdict = "ungated"
            rows.append(
                {
                    "workload": name,
                    "metric": spec["name"],
                    "unit": spec["unit"],
                    "base": a["value"],
                    "new": b["value"],
                    "ratio": b["value"] / a["value"] if a["value"] else float("nan"),
                    "bound": spec["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def print_compare(rows, strict: bool = False) -> bool:
    """Print the table; False on a regression (``strict``: or unresolved)."""
    print(
        f"{'workload':<16} {'metric':<14} {'base':>12} {'new':>12} "
        f"{'new/base':>9} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<16} {row['metric']:<14} {row['base']:>12.5g} "
            f"{row['new']:>12.5g} {row['ratio']:>9.3f} {row['bound']:>6.2f}  "
            f"{row['verdict']}"
        )
    for verdict in ("regression", "unresolved"):
        names = [
            f"{row['workload']}:{row['metric']}"
            for row in rows
            if row["verdict"] == verdict
        ]
        if names:
            print(f"{verdict}: {', '.join(names)}")
    failing = ("regression", "unresolved") if strict else ("regression",)
    return not any(row["verdict"] in failing for row in rows)


def load_result(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- command line ------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float,
        help="accepted for the driver's command line and otherwise unused: a "
        "run is a fixed amount of work (about run_seconds on the reference box)",
    )  # fmt: skip
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: the traced pass (per-layer metrics) instead of the untraced one",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="mini world, 1/8 work")
    parser.add_argument("--out", help="write the suite's result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run the suite twice; fail if a gated metric moves past its bound "
        "or its own spread leaves that unresolved",
    )  # fmt: skip
    parser.add_argument(
        "--in-process", action="store_true",
        help="run --workload here and print the result line (BENCHMARK.json's "
        "form, and what the suite spawns) instead of running the suite",
    )  # fmt: skip
    # Set by the suite on the subprocesses it spawns:
    parser.add_argument("--agent", help="trained agent .npz (skips training)")
    parser.add_argument("--detail", help="write this workload's full result here")
    parser.add_argument("--trace-out", help="write the traced pass's spans here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    contract = load_contract()
    if args.compare:
        base, new = (load_result(path) for path in args.compare)
        return 0 if print_compare(compare(base, new, contract)) else 1
    if args.check_repeat:
        first, second = run_suite(args), run_suite(args)
        ok = print_compare(compare(first, second, contract), strict=True)
        return 0 if ok and suite_ok(first) and suite_ok(second) else 1
    if args.in_process:
        return run_workload(args)
    return 0 if suite_ok(run_suite(args)) else 1


if __name__ == "__main__":
    sys.exit(main())
