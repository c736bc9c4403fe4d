"""Open-loop multi-tenant load against the labeling gateway.

Drives a live :class:`~repro.serving.gateway.LabelingGateway` with many
concurrent asyncio clients split across tenants, each pacing arrivals on
its own schedule (Poisson gaps) over a Zipf-skewed item popularity, and
measures everything **client-side** — the numbers are what a caller
would see, not what the server believes about itself.

Two phases answer the PR's acceptance questions:

1. **baseline** — only the cold tenants run, at a sustainable rate.
   Their per-tenant p50/p95/p99 is the isolation reference.
2. **contended** — the same cold workload, plus a hot tenant saturating
   the service with full-speed batch submissions.  The queue's tenant
   stride keeps the cold tenants' p99 within ``--assert-fairness``
   (default 4x) of their baseline; without it the p99 would degrade
   with the hot tenant's backlog instead.

Also verified on the same live gateway: cross-tenant result-cache
isolation (tenant B's first request for an item tenant A just labeled
must **not** be served from cache), and the presence of the
tenant-labeled metric families on ``/metrics.json``.

Scales: ``smoke`` (~60 clients, CI), ``mini``, ``full`` (>= 1000
clients across >= 3 tenants — the acceptance configuration).  By
default the bench spawns ``python -m repro.cli gateway`` as a child
process (server and clients must not share a GIL); point ``--url`` at
an already-running gateway to skip the spawn (the CI smoke path)::

    PYTHONPATH=src python benchmarks/bench_gateway_load.py --scale smoke \
        --json BENCH_gateway_load.json
    PYTHONPATH=src python benchmarks/bench_gateway_load.py --scale full \
        --assert-fairness 4.0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

import numpy as np

#: Cold-tenant baseline p99 floor: ratios against a near-zero baseline
#: are noise, so the denominator never drops below this (seconds).
FAIRNESS_FLOOR = 0.05

SCALES = {
    # per-cold-tenant clients, hot clients, phase seconds, req/s per client.
    # Cold rates are sized so aggregate cold demand sits well under one
    # gateway process's HTTP capacity — the *service queue* must be the
    # contended resource, or the bench measures loop saturation instead
    # of scheduling fairness.
    "smoke": dict(cold_clients=12, hot_clients=24, duration=3.0, rate=6.0),
    "mini": dict(cold_clients=60, hot_clients=40, duration=6.0, rate=3.0),
    "full": dict(cold_clients=320, hot_clients=120, duration=10.0, rate=1.5),
}

DEMO_KEY = "demo-key-{name}".format


# -- tiny asyncio HTTP/1.1 client (stdlib only, keep-alive) -----------------


class GatewayClient:
    """One keep-alive connection to the gateway."""

    def __init__(self, host: str, port: int, api_key: str | None):
        self.host = host
        self.port = port
        self.api_key = api_key
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        """One round trip; reconnects once on a stale keep-alive socket."""
        for attempt in (0, 1):
            if self._writer is None:
                await self._connect()
            try:
                return await self._round_trip(method, path, body)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    async def _round_trip(self, method, path, body) -> tuple[int, dict]:
        payload = b""
        if body is not None:
            payload = json.dumps(body, separators=(",", ":")).encode()
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}",
            "Connection: keep-alive",
        ]
        if self.api_key:
            lines.append(f"Authorization: Bearer {self.api_key}")
        if payload:
            lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(payload)}")
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed connection")
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionResetError("truncated response headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            chunks = []
            while True:
                size = int((await self._reader.readline()).strip(), 16)
                if size == 0:
                    await self._reader.readline()
                    break
                chunks.append(await self._reader.readexactly(size))
                await self._reader.readexactly(2)
            raw = b"".join(chunks)
        else:
            raw = await self._reader.readexactly(
                int(headers.get("content-length", 0))
            )
        if headers.get("connection", "").lower() == "close":
            await self.close()
        try:
            parsed = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            parsed = {"raw": raw.decode("utf-8", "replace")}
        return status, parsed


# -- load generation ---------------------------------------------------------


class TenantStats:
    """Client-side samples for one tenant within one phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.statuses: dict[int, int] = {}
        self.items = 0

    def record(self, status: int, latency: float, items: int = 1) -> None:
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status == 200:
            self.latencies.append(latency)
            self.items += items

    def summary(self, elapsed: float) -> dict:
        lat = np.sort(np.asarray(self.latencies)) if self.latencies else None
        pct = (
            {
                "p50": float(np.percentile(lat, 50)),
                "p95": float(np.percentile(lat, 95)),
                "p99": float(np.percentile(lat, 99)),
                "mean": float(lat.mean()),
            }
            if lat is not None
            else {"p50": None, "p95": None, "p99": None, "mean": None}
        )
        return {
            "requests": int(sum(self.statuses.values())),
            "ok": int(self.statuses.get(200, 0)),
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "items_per_sec": self.items / elapsed if elapsed > 0 else 0.0,
            "latency_s": pct,
        }


def zipf_picker(item_ids: list[str], seed: int, s: float = 1.1):
    """Zipf-skewed popularity over the catalog (hot repeats hit cache)."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(item_ids) + 1, dtype=np.float64)
    probs = ranks**-s
    probs /= probs.sum()

    def pick() -> str:
        return item_ids[int(rng.choice(len(item_ids), p=probs))]

    return pick


async def cold_client(
    host, port, key, item_ids, rate, stop_at, stats: TenantStats, seed: int
) -> None:
    """Paced single-item labeler: one request per Poisson arrival."""
    rng = np.random.default_rng(seed)
    pick = zipf_picker(item_ids, seed + 1)
    client = GatewayClient(host, port, key)
    loop = asyncio.get_running_loop()
    next_at = loop.time() + rng.uniform(0.0, 1.0 / rate)
    try:
        while True:
            delay = next_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if loop.time() >= stop_at:
                break
            next_at += rng.exponential(1.0 / rate)
            started = loop.time()
            try:
                status, _ = await client.request(
                    "POST", "/v1/label", {"item_id": pick()}
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                stats.record(-1, 0.0)
                continue
            stats.record(status, loop.time() - started)
    finally:
        await client.close()


async def hot_client(
    host, port, key, item_ids, batch, stop_at, stats: TenantStats, seed: int
) -> None:
    """Saturating batch labeler: back-to-back /v1/label/batch calls."""
    rng = np.random.default_rng(seed)
    client = GatewayClient(host, port, key)
    loop = asyncio.get_running_loop()
    try:
        while loop.time() < stop_at:
            ids = [
                item_ids[int(rng.integers(len(item_ids)))] for _ in range(batch)
            ]
            started = loop.time()
            try:
                status, _ = await client.request(
                    "POST", "/v1/label/batch", {"items": ids}
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                stats.record(-1, 0.0)
                continue
            stats.record(status, loop.time() - started, items=batch)
            if status == 429:
                await asyncio.sleep(0.01)  # honor backpressure minimally
    finally:
        await client.close()


async def run_phase(
    host,
    port,
    cold_tenants: list[str],
    hot_tenant: str | None,
    item_ids,
    cfg,
    seed: int,
) -> tuple[dict, float]:
    """One load phase; returns per-tenant summaries and elapsed seconds."""
    loop = asyncio.get_running_loop()
    stop_at = loop.time() + cfg["duration"]
    stats = {name: TenantStats() for name in cold_tenants}
    tasks = []
    for t_index, name in enumerate(cold_tenants):
        for c_index in range(cfg["cold_clients"]):
            tasks.append(
                cold_client(
                    host,
                    port,
                    DEMO_KEY(name=name),
                    item_ids,
                    cfg["rate"],
                    stop_at,
                    stats[name],
                    seed + 1000 * t_index + c_index,
                )
            )
    if hot_tenant is not None:
        stats[hot_tenant] = TenantStats()
        for c_index in range(cfg["hot_clients"]):
            tasks.append(
                hot_client(
                    host,
                    port,
                    DEMO_KEY(name=hot_tenant),
                    item_ids,
                    cfg["hot_batch"],
                    stop_at,
                    stats[hot_tenant],
                    seed + 777_000 + c_index,
                )
            )
    started = loop.time()
    await asyncio.gather(*tasks)
    elapsed = loop.time() - started
    return {name: s.summary(elapsed) for name, s in stats.items()}, elapsed


# -- probes ------------------------------------------------------------------


async def cache_isolation_probe(host, port, tenant_a, tenant_b, item_id) -> dict:
    """A labels an item twice, then B asks: B's first answer must be
    computed fresh (tenant-partitioned cache), B's second cached."""
    a = GatewayClient(host, port, DEMO_KEY(name=tenant_a))
    b = GatewayClient(host, port, DEMO_KEY(name=tenant_b))
    try:
        flags = []
        for client in (a, a, b, b):
            status, body = await client.request(
                "POST", "/v1/label", {"item_id": item_id}
            )
            if status != 200:
                return {"passed": False, "error": f"status {status}: {body}"}
            flags.append(bool(body.get("cached")))
        expected = [False, True, False, True]
        return {
            "passed": flags == expected,
            "cached_flags": flags,
            "expected": expected,
        }
    finally:
        await a.close()
        await b.close()


async def scrape_tenant_families(host, port) -> dict:
    """Which tenant-labeled families /metrics.json exposes."""
    client = GatewayClient(host, port, None)
    try:
        status, body = await client.request("GET", "/metrics.json")
    finally:
        await client.close()
    if status != 200:
        return {"scrape_status": status, "families": []}
    names = set(body)  # render_json: one key per family name
    wanted = [
        "repro_gateway_requests_total",
        "repro_gateway_admitted_total",
        "repro_gateway_inflight",
        "repro_gateway_e2e_seconds",
        "repro_tenant_queue_wait_seconds",
        "repro_tenant_slo_completed_total",
    ]
    return {
        "scrape_status": status,
        "families": sorted(n for n in names if "tenant" in n or "gateway" in n),
        "missing": [n for n in wanted if n not in names],
    }


# -- self-hosting ------------------------------------------------------------


def spawn_gateway(args) -> tuple[str, int, object]:
    """Launch ``repro.cli gateway`` in its own process; (host, port, proc).

    A separate process, deliberately: clients and server sharing one
    interpreter would share one GIL, and at the 1000-client scales the
    bench would measure its own scheduling jitter instead of the
    gateway's fairness.
    """
    import socket
    import subprocess

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "gateway",
        "--items", str(args.items),
        "--port", str(port),
        "--demo-tenants", str(args.tenants + 1),  # +1 = the hot tenant
        "--batch-size", str(args.batch_size),
        "--max-wait", str(args.max_wait),
        "--workers", str(args.workers),
        "--max-depth", str(args.max_depth),
        "--cache-size", str(args.cache_size),
    ]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 180.0
    for line in proc.stdout:
        if "gateway listening at" in line:
            break
        if time.monotonic() > deadline or proc.poll() is not None:
            proc.kill()
            raise SystemExit(f"gateway failed to start: {line.strip()}")
    else:
        raise SystemExit("gateway exited before listening")
    # Drain the child's stdout in the background so it never blocks on a
    # full pipe while we load it.
    import threading

    threading.Thread(
        target=lambda: [None for _ in proc.stdout], daemon=True
    ).start()
    return "127.0.0.1", port, proc


def raise_fd_limit(wanted: int) -> None:
    """Best-effort RLIMIT_NOFILE bump for the 1000-connection scales."""
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < wanted:
            resource.setrlimit(
                resource.RLIMIT_NOFILE, (min(wanted, hard), hard)
            )
    except (ImportError, ValueError, OSError):
        pass


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--scale", default="smoke", choices=sorted(SCALES)
    )
    parser.add_argument(
        "--url",
        default=None,
        help="drive an external gateway (e.g. http://127.0.0.1:8099) "
        "instead of self-hosting; demo-roster keys are assumed",
    )
    parser.add_argument("--tenants", type=int, default=3, help="cold tenants")
    parser.add_argument("--cold-clients", type=int, default=None)
    parser.add_argument("--hot-clients", type=int, default=None)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--rate", type=float, default=None)
    parser.add_argument("--hot-batch", type=int, default=8)
    parser.add_argument(
        "--assert-fairness",
        type=float,
        default=None,
        help="fail unless every cold tenant's contended p99 is within "
        "this ratio of its baseline p99 (acceptance: 4.0)",
    )
    parser.add_argument("--json", default=None, help="write results here")
    parser.add_argument("--seed", type=int, default=20200208)
    # self-host knobs
    parser.add_argument("--items", type=int, default=96)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--max-wait", type=float, default=0.01)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-depth", type=int, default=4096)
    parser.add_argument("--cache-size", type=int, default=2048)
    args = parser.parse_args(argv)

    cfg = dict(SCALES[args.scale])
    cfg["hot_batch"] = args.hot_batch
    for key in ("cold_clients", "hot_clients", "duration", "rate"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)

    cold_tenants = [f"tenant-{i}" for i in range(args.tenants)]
    hot_tenant = f"tenant-{args.tenants}"
    total_clients = args.tenants * cfg["cold_clients"] + cfg["hot_clients"]
    raise_fd_limit(2 * total_clients + 256)

    cleanup = None
    if args.url is not None:
        stripped = args.url.rstrip("/").removeprefix("http://")
        host, _, port = stripped.partition(":")
        port = int(port or 80)
    else:
        host, port, proc = spawn_gateway(args)

        def cleanup() -> None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except Exception:
                proc.kill()

    async def drive() -> dict:
        probe = GatewayClient(host, port, DEMO_KEY(name=cold_tenants[0]))
        try:
            status, body = await probe.request("GET", "/v1/items")
        finally:
            await probe.close()
        if status != 200:
            raise SystemExit(f"catalog fetch failed: {status} {body}")
        catalog = body["items"]
        # Reserve the lexicographically last item for the cache probe so
        # phase traffic (Zipf over the rest) never touches it first.
        probe_item, workload = catalog[-1], catalog[:-1]

        print(
            f"gateway load: scale={args.scale} url=http://{host}:{port} "
            f"tenants={len(cold_tenants)}+1hot clients={total_clients} "
            f"catalog={len(catalog)}"
        )
        print(f"phase 1/2: baseline ({cfg['duration']:.0f}s, cold tenants only)")
        baseline, base_elapsed = await run_phase(
            host, port, cold_tenants, None, workload, cfg, args.seed
        )
        await asyncio.sleep(0.5)
        print(
            f"phase 2/2: contended ({cfg['duration']:.0f}s, "
            f"+{cfg['hot_clients']} saturating {hot_tenant} clients)"
        )
        contended, cont_elapsed = await run_phase(
            host, port, cold_tenants, hot_tenant, workload, cfg, args.seed + 1
        )
        await asyncio.sleep(0.5)
        cache = await cache_isolation_probe(
            host, port, cold_tenants[0], cold_tenants[-1], probe_item
        )
        metrics = await scrape_tenant_families(host, port)
        return {
            "baseline": baseline,
            "baseline_elapsed": base_elapsed,
            "contended": contended,
            "contended_elapsed": cont_elapsed,
            "cache_isolation": cache,
            "metrics": metrics,
        }

    try:
        outcome = asyncio.run(drive())
    finally:
        if cleanup is not None:
            cleanup()

    fairness = {}
    worst = 0.0
    for name in cold_tenants:
        base_p99 = outcome["baseline"][name]["latency_s"]["p99"]
        cont_p99 = outcome["contended"][name]["latency_s"]["p99"]
        if base_p99 is None or cont_p99 is None:
            fairness[name] = {"ratio": None}
            continue
        ratio = cont_p99 / max(base_p99, FAIRNESS_FLOOR)
        fairness[name] = {
            "baseline_p99_s": base_p99,
            "contended_p99_s": cont_p99,
            "ratio": ratio,
        }
        worst = max(worst, ratio)

    for phase in ("baseline", "contended"):
        print(f"{phase}:")
        for name, summary in outcome[phase].items():
            lat = summary["latency_s"]
            line = (
                f"  {name:<10} req={summary['requests']:<6} "
                f"ok={summary['ok']:<6} {summary['items_per_sec']:8.1f} items/s"
            )
            if lat["p99"] is not None:
                line += (
                    f"  p50={lat['p50'] * 1000:7.1f}ms "
                    f"p95={lat['p95'] * 1000:7.1f}ms "
                    f"p99={lat['p99'] * 1000:7.1f}ms"
                )
            print(line)
    for name, entry in fairness.items():
        if entry["ratio"] is not None:
            print(
                f"fairness {name}: contended/baseline p99 = "
                f"{entry['ratio']:.2f}x"
            )
    print(
        "cache isolation:",
        "PASS" if outcome["cache_isolation"].get("passed") else "FAIL",
        outcome["cache_isolation"],
    )
    print(
        f"tenant metric families: {len(outcome['metrics']['families'])} "
        f"(missing: {outcome['metrics'].get('missing', [])})"
    )

    report = {
        "bench": "gateway_load",
        "scale": args.scale,
        "config": {**cfg, "tenants": args.tenants, "clients": total_clients},
        "phases": {
            "baseline": outcome["baseline"],
            "contended": outcome["contended"],
        },
        "fairness": {
            "per_tenant": fairness,
            "worst_ratio": worst,
            "floor_s": FAIRNESS_FLOOR,
            "threshold": args.assert_fairness,
        },
        "cache_isolation": outcome["cache_isolation"],
        "metrics": outcome["metrics"],
        "timestamp": time.time(),
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.json}")

    failed = []
    if not outcome["cache_isolation"].get("passed"):
        failed.append("cache isolation")
    if outcome["metrics"].get("missing"):
        failed.append(f"metric families missing {outcome['metrics']['missing']}")
    if args.assert_fairness is not None and worst > args.assert_fairness:
        failed.append(
            f"fairness {worst:.2f}x exceeds {args.assert_fairness:.2f}x"
        )
    if failed:
        print("FAILED:", "; ".join(failed))
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
