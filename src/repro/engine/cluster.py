"""Cluster transport: shard the scheduling world across socket workers.

:class:`~repro.engine.process.ProcessPoolBackend` escapes the GIL but not
the box — every worker is a child of one machine.  This module carries
the same :mod:`repro.engine.sharded` chunk protocol over stdlib TCP
sockets so scheduling work can leave the host:

* :class:`ClusterWorker` — a worker process (or host) serving a
  length-prefixed frame protocol on a socket.  A dispatcher connection
  first ships a :class:`~repro.engine.snapshot.WorldSnapshot` (shipped
  **once** per worker connection), then streams chunk requests carrying
  only the records the snapshot lacks; the worker runs each through
  :func:`~repro.engine.sharded.run_chunk` and streams trace shards back.
  Deltas and shards are the :mod:`repro.engine.shm` fixed-dtype codec
  bytes — the same ones the process pool sends through its executor
  pipe — framed over the wire.
* :class:`ClusterBackend` (registry ``"cluster"``) — the dispatcher.
  Chunks are placed **round-robin over live links** (chunk ``i`` to link
  ``i mod n``): no worker keeps per-key state, so placement only decides
  balance.  A worker's death moves only *its* chunks, each to the next
  live link: in-flight chunks on a dead socket are re-dispatched and the
  job completes with a byte-identical trace (the ``BrokenProcessPool``
  respawn logic, generalized to partial failure).
  A dead worker that comes back is re-connected on the next job and
  receives a fresh snapshot.  ``refresh(predictor)`` hot-swaps agent
  weights fleet-wide with one small control frame per worker — no
  reconnect, no snapshot re-ship — which is the hook an online-learning
  loop needs.
* :func:`spawn_local_workers` / :class:`LocalWorkerFleet` — a loopback
  fleet of worker *processes* for single-host scaling, tests, and the
  CLI's ``--workers N`` form.

Wire format: each frame is ``!IBq`` (payload length, kind, request id)
followed by the payload.  Requests are SNAPSHOT / CHUNK / REFRESH;
replies are OK / RESULT / ERROR and echo the request id, so a dispatcher
may pipeline many chunks down one connection and match replies as they
arrive.  Snapshots, the small chunk/result headers and error replies are
still pickled (ROADMAP direction 7); records and traces never are.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
import random
import socket
import struct
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import replace

from repro.engine.sharded import ShardedBackend, run_chunk
from repro.engine.snapshot import capture_predictor, restore_predictor
from repro.scheduling.qgreedy import QValuePredictor
from repro.zoo.oracle import GroundTruth

logger = logging.getLogger("repro.engine.cluster")

__all__ = [
    "ClusterBackend",
    "ClusterWorker",
    "LocalWorkerFleet",
    "WorkerDied",
    "spawn_local_workers",
]

# -- frame protocol ----------------------------------------------------------

#: Frame header: payload length (u32), frame kind (u8), request id (i64).
_HEADER = struct.Struct("!IBq")

MSG_SNAPSHOT = 1  #: pickle(WorldSnapshot) -> OK
MSG_CHUNK = 2  #: pickle((item_ids, spec, encode_records bytes)) -> RESULT
MSG_REFRESH = 3  #: pickle(predictor payload tuple) -> OK
REPLY_OK = 0x80
REPLY_RESULT = 0x82  #: pickle((encode_traces bytes, seconds))
REPLY_ERROR = 0x83  #: pickle(exception)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    data = bytearray()
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        data += chunk
    return bytes(data)


def _send_frame(sock: socket.socket, kind: int, req_id: int, body: bytes) -> None:
    sock.sendall(_HEADER.pack(len(body), kind, req_id) + body)


def _recv_frame(sock: socket.socket) -> tuple[int, int, bytes]:
    length, kind, req_id = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    return kind, req_id, _recv_exact(sock, length)


def _parse_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address must be 'host:port', got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"worker address must be 'host:port', got {address!r}"
        ) from None


class WorkerDied(ConnectionError):
    """A cluster worker's connection failed with requests outstanding."""

    def __init__(self, address: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"cluster worker {address} died{detail}")
        self.address = address


# -- worker ------------------------------------------------------------------


class _ConnectionState:
    """Per-connection world: each dispatcher ships its own snapshot."""

    __slots__ = ("truth", "predictor")

    def __init__(self):
        self.truth: GroundTruth | None = None
        self.predictor: QValuePredictor | None = None


class ClusterWorker:
    """Serve scheduling chunks over a socket; one world per connection.

    ``delay_per_item`` adds a per-item sleep after each chunk's
    scheduling pass — a stand-in for model-execution latency (GPU
    inference, remote model APIs) used by the scaling benchmark to
    demonstrate dispatch overlap on hosts with fewer cores than workers.
    It never affects traces.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        delay_per_item: float = 0.0,
    ):
        if delay_per_item < 0:
            raise ValueError("delay_per_item must be >= 0")
        self._server = socket.create_server((host, port))
        self.host = host
        self.port = self._server.getsockname()[1]
        self.delay_per_item = delay_per_item
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Accept dispatcher connections until :meth:`stop` (blocking)."""
        self._server.settimeout(0.5)
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._server.accept()
                except TimeoutError:
                    continue
                except OSError:
                    break
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    daemon=True,
                    name=f"cluster-worker-conn-{self.port}",
                ).start()
        finally:
            self._server.close()

    def serve_background(self) -> "ClusterWorker":
        """Run the accept loop in a daemon thread (in-process tests)."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            daemon=True,
            name=f"cluster-worker-{self.port}",
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    # -- frame handling ------------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        state = _ConnectionState()
        with conn:
            while not self._stop.is_set():
                try:
                    kind, req_id, body = _recv_frame(conn)
                except (ConnectionError, OSError):
                    return
                try:
                    reply_kind, reply_body = self._handle(state, kind, body)
                except Exception as exc:
                    reply_kind = REPLY_ERROR
                    try:
                        reply_body = pickle.dumps(exc)
                    except Exception:
                        reply_body = pickle.dumps(RuntimeError(repr(exc)))
                try:
                    _send_frame(conn, reply_kind, req_id, reply_body)
                except (ConnectionError, OSError):
                    return

    def _handle(
        self, state: _ConnectionState, kind: int, body: bytes
    ) -> tuple[int, bytes]:
        if kind == MSG_SNAPSHOT:
            state.truth, state.predictor = pickle.loads(body).restore()
            return REPLY_OK, b""
        if kind == MSG_REFRESH:
            if state.truth is None:
                raise RuntimeError("refresh before a snapshot was shipped")
            state.predictor = restore_predictor(pickle.loads(body), state.truth)
            return REPLY_OK, b""
        if kind == MSG_CHUNK:
            return REPLY_RESULT, self._run_chunk(state, body)
        raise ValueError(f"unknown frame kind {kind:#x}")

    def _run_chunk(self, state: _ConnectionState, body: bytes) -> bytes:
        if state.truth is None or state.predictor is None:
            raise RuntimeError("chunk received before a snapshot was shipped")
        item_ids, spec, delta = pickle.loads(body)
        shard, seconds = run_chunk(state.truth, state.predictor, item_ids, spec, delta)
        if self.delay_per_item:
            delay = self.delay_per_item * len(item_ids)
            time.sleep(delay)
            seconds += delay
        return pickle.dumps((shard, seconds))


# -- dispatcher link ---------------------------------------------------------


class _Link:
    """One dispatcher->worker connection with pipelined request framing.

    A daemon reader thread resolves reply futures by request id; socket
    failure (EOF, reset) fails every outstanding future with
    :class:`WorkerDied` so the backend can re-dispatch those chunks.
    """

    def __init__(self, address: str, timeout: float):
        self.address = address
        host, port = _parse_address(address)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.RLock()
        self._pending: dict[int, Future] = {}
        self._next_id = 0
        self.dead = False
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True, name=f"cluster-link-{address}"
        )
        self._reader.start()

    def request(self, kind: int, body: bytes) -> Future:
        """Send one frame; the returned future resolves to (kind, body)."""
        future: Future = Future()
        with self._lock:
            if self.dead:
                raise WorkerDied(self.address)
            req_id = self._next_id
            self._next_id += 1
            self._pending[req_id] = future
            try:
                _send_frame(self._sock, kind, req_id, body)
            except OSError as exc:
                self._pending.pop(req_id, None)
                self._fail(exc)
                raise WorkerDied(self.address, repr(exc)) from exc
        return future

    def call(self, kind: int, body: bytes) -> tuple[int, bytes]:
        """Synchronous request; raises the worker's exception on ERROR."""
        return self.request(kind, body).result()

    def _read_loop(self) -> None:
        try:
            while True:
                kind, req_id, body = _recv_frame(self._sock)
                with self._lock:
                    future = self._pending.pop(req_id, None)
                if future is None:
                    continue
                if kind == REPLY_ERROR:
                    try:
                        exc = pickle.loads(body)
                    except Exception:
                        exc = RuntimeError("worker error (undecodable payload)")
                    future.set_exception(exc)
                else:
                    future.set_result((kind, body))
        except (ConnectionError, OSError) as exc:
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            if self.dead:
                return
            self.dead = True
            pending, self._pending = self._pending, {}
        for future in pending.values():
            future.set_exception(WorkerDied(self.address, repr(exc)))
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        self._fail(ConnectionError("link closed"))


# -- local worker fleet ------------------------------------------------------


def _local_worker_main(host, port, conn, delay_per_item) -> None:
    """Worker-process entry point (module-level: spawn-context safe)."""
    worker = ClusterWorker(host, port, delay_per_item=delay_per_item)
    conn.send(worker.port)
    conn.close()
    worker.serve_forever()


def _spawn_one(ctx, host: str, port: int, delay_per_item: float):
    parent, child = ctx.Pipe()
    process = ctx.Process(
        target=_local_worker_main,
        args=(host, port, child, delay_per_item),
        daemon=True,
    )
    process.start()
    child.close()
    if not parent.poll(30):
        process.kill()
        raise RuntimeError(f"cluster worker on {host}:{port} failed to bind")
    bound = parent.recv()
    parent.close()
    return process, bound


class LocalWorkerFleet:
    """A set of loopback :class:`ClusterWorker` processes with fixed ports.

    ``kill(i)`` SIGKILLs a worker (chaos testing); ``restart(i)``
    respawns it on the *same* port so a dispatcher's configured address
    list stays valid across the death.
    """

    def __init__(self, processes, ports, host, ctx, delay_per_item):
        self._processes = processes
        self._ports = ports
        self._host = host
        self._ctx = ctx
        self._delay = delay_per_item

    @property
    def addresses(self) -> tuple[str, ...]:
        return tuple(f"{self._host}:{port}" for port in self._ports)

    def kill(self, index: int) -> None:
        process = self._processes[index]
        process.kill()
        process.join(timeout=10)

    def restart(self, index: int) -> None:
        self.kill(index)
        process, _ = _spawn_one(
            self._ctx, self._host, self._ports[index], self._delay
        )
        self._processes[index] = process

    def close(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=10)

    def __enter__(self) -> "LocalWorkerFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def spawn_local_workers(
    n: int,
    host: str = "127.0.0.1",
    mp_context=None,
    delay_per_item: float = 0.0,
) -> LocalWorkerFleet:
    """Spawn ``n`` loopback worker processes on OS-assigned ports."""
    if n < 1:
        raise ValueError("need at least one local worker")
    ctx = mp_context or multiprocessing.get_context()
    processes, ports = [], []
    try:
        for _ in range(n):
            process, port = _spawn_one(ctx, host, 0, delay_per_item)
            processes.append(process)
            ports.append(port)
    except BaseException:
        for process in processes:
            process.kill()
        raise
    return LocalWorkerFleet(processes, ports, host, ctx, delay_per_item)


# -- dispatcher backend ------------------------------------------------------


class ClusterBackend(ShardedBackend):
    """Shard scheduling chunks over socket workers, round-robin.

    The protocol (snapshot once, chunk deltas, serial-parity traces,
    world affinity) is :class:`~repro.engine.sharded.ShardedBackend`'s;
    this class is the sockets.  The first job connects to every
    configured worker and ships the snapshot once per connection; later
    jobs against the same world reuse the live connections.
    Chunk ``i`` of a job goes to live link ``i mod n`` (configured
    addresses first, then the local fleet's), so the default plan of one
    even shard per worker gives each worker exactly one.  One worker's
    death moves only its chunks: each failed chunk is re-dispatched to
    the next live link and the job still returns serial-parity traces.
    Dead workers are re-connected (and re-shipped a fresh snapshot) on
    the next job; :meth:`refresh` hot-swaps predictor weights fleet-wide
    without either.  Unreachable workers at connect time are skipped
    with a warning as long as one worker is live.

    Parameters
    ----------
    workers:
        ``"host:port"`` addresses of externally-managed workers
        (``repro.cli cluster-worker`` or :class:`ClusterWorker`).
    local_workers:
        Additionally spawn this many loopback worker processes owned
        (and closed) by the backend.
    chunk_size:
        Items per dispatched chunk; default shards evenly across live
        workers.
    connect_timeout:
        Seconds to wait per worker TCP connect before marking it
        unreachable.
    connect_attempts:
        Dial attempts per worker per job before skipping it; transient
        refusals (a worker restarting, a race with fleet spawn) are
        retried with jittered exponential backoff instead of silently
        shrinking the fleet for a whole job.
    connect_backoff:
        Base seconds between dial attempts; each retry doubles it and
        applies +-50% jitter so a fleet reconnecting en masse does not
        hammer a recovering worker in lockstep.
    mp_context:
        :mod:`multiprocessing` context for ``local_workers``.
    """

    name = "cluster"

    def __init__(
        self,
        workers: tuple[str, ...] | list[str] = (),
        local_workers: int | None = None,
        chunk_size: int | None = None,
        connect_timeout: float = 10.0,
        connect_attempts: int = 3,
        connect_backoff: float = 0.2,
        mp_context=None,
    ):
        workers = tuple(workers)
        self.check_fields(
            workers=workers,
            local_workers=local_workers,
            chunk_size=chunk_size,
            connect_timeout=connect_timeout,
            connect_attempts=connect_attempts,
            connect_backoff=connect_backoff,
        )
        super().__init__(chunk_size)
        self.workers = workers
        self.local_workers = local_workers
        self.connect_timeout = connect_timeout
        self.connect_attempts = connect_attempts
        self.connect_backoff = connect_backoff
        self.mp_context = mp_context
        self._links: dict[str, _Link] = {}
        self._fleet: LocalWorkerFleet | None = None
        self._snapshot_ships: Counter = Counter()
        self._redispatched: Counter = Counter()
        self._refreshes = 0

    @staticmethod
    def check_fields(
        *,
        workers: tuple[str, ...],
        local_workers: int | None,
        chunk_size: int | None,
        connect_timeout: float,
        connect_attempts: int,
        connect_backoff: float,
        **unchecked,
    ) -> None:
        for address in workers:
            _parse_address(address)
        if local_workers is not None and local_workers < 1:
            raise ValueError("local_workers must be >= 1")
        if not workers and not local_workers:
            raise ValueError(
                "cluster backend needs workers: pass workers=('host:port', ...) "
                "and/or local_workers=N"
            )
        ShardedBackend.check_fields(chunk_size=chunk_size)
        if connect_timeout <= 0:
            raise ValueError("connect_timeout must be positive")
        if connect_attempts < 1:
            raise ValueError("connect_attempts must be >= 1")
        if connect_backoff < 0:
            raise ValueError("connect_backoff must be >= 0")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Disconnect every worker and stop the owned local fleet."""
        with self._lock:
            self._disconnect()
            self._forget_world()
            fleet, self._fleet = self._fleet, None
        if fleet is not None:
            fleet.close()

    # -- telemetry -----------------------------------------------------------

    @property
    def cluster_stats(self) -> dict:
        """Cluster health: per-worker liveness, ships, re-dispatches."""
        with self._lock:
            addresses = dict.fromkeys(self._addresses())
            for address in self._links:
                addresses.setdefault(address)
            return {
                "workers": {
                    address: {
                        "alive": address in self._links
                        and not self._links[address].dead,
                        "snapshot_ships": self._snapshot_ships[address],
                        "redispatched": self._redispatched[address],
                    }
                    for address in addresses
                },
                "refreshes": self._refreshes,
                "snapshot_ships": sum(self._snapshot_ships.values()),
                "redispatched": sum(self._redispatched.values()),
            }

    # -- control plane -------------------------------------------------------

    def refresh(self, predictor: QValuePredictor) -> int:
        """Hot-swap predictor weights fleet-wide; returns workers updated.

        One small control frame per live worker — no reconnect, no
        snapshot re-ship.  The stored snapshot's predictor payload is
        swapped too, so a worker that rejoins later restores the *new*
        weights, and the world key is re-anchored on ``predictor`` so
        the next :meth:`run` with it reuses every connection.
        """
        with self._lock:
            if self._world_key is None or self._snapshot is None:
                raise RuntimeError(
                    "refresh() before any job shipped a world snapshot"
                )
            if self._active > 0:
                raise RuntimeError(
                    "cannot refresh the fleet while jobs are in flight"
                )
            payload = capture_predictor(predictor)
            body = pickle.dumps(payload)
            updated = 0
            for link in self._links.values():
                if link.dead:
                    continue
                link.call(MSG_REFRESH, body)
                updated += 1
            self._snapshot = replace(self._snapshot, predictor_payload=payload)
            zoo_id, _, config = self._world_key
            self._world = (self._world[0], predictor)
            self._world_key = (zoo_id, id(predictor), config)
            self._refreshes += 1
            return updated

    # -- transport hooks -----------------------------------------------------

    def _addresses(self) -> tuple[str, ...]:
        fleet = self._fleet.addresses if self._fleet is not None else ()
        return self.workers + tuple(fleet)

    def _dial(self, address: str) -> _Link:
        """Connect to one worker, retrying transient failures with backoff.

        Only the TCP connect is retried — once a link exists, failures
        are the re-dispatch path's problem.  Backoff doubles per attempt
        with +-50% jitter; the last failure propagates to the caller,
        which logs and skips the worker for this job.
        """
        delay = self.connect_backoff
        for attempt in range(1, self.connect_attempts + 1):
            try:
                return _Link(address, self.connect_timeout)
            except OSError:
                if attempt == self.connect_attempts:
                    raise
                sleep = delay * random.uniform(0.5, 1.5)
                logger.debug(
                    "dial %s failed (attempt %d/%d); retrying in %.2fs",
                    address,
                    attempt,
                    self.connect_attempts,
                    sleep,
                )
                time.sleep(sleep)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def _connect(self) -> tuple[tuple[_Link, ...], int]:
        """Live links for the snapshot, in address order; (re)dials and
        ships where needed.

        Partial presence is fine — dead or unreachable workers are
        skipped (and retried next job) as long as one link is live.
        """
        if self._fleet is None and self.local_workers:
            self._fleet = spawn_local_workers(
                self.local_workers, mp_context=self.mp_context
            )
        addresses = self._addresses()
        snapshot_body = None
        for address in addresses:
            link = self._links.get(address)
            if link is not None and not link.dead:
                continue
            if snapshot_body is None:
                snapshot_body = pickle.dumps(self._snapshot)
            try:
                link = self._dial(address)
                link.call(MSG_SNAPSHOT, snapshot_body)
            except (OSError, WorkerDied) as exc:
                logger.warning(
                    "cluster worker %s unreachable, skipping: %s",
                    address,
                    exc,
                )
                self._links.pop(address, None)
                continue
            self._links[address] = link
            self._snapshot_ships[address] += 1
        live = tuple(
            link
            for link in map(self._links.get, addresses)
            if link is not None and not link.dead
        )
        if not live:
            raise RuntimeError(f"no live cluster workers reachable among {addresses}")
        return live, len(live)

    def _disconnect(self) -> None:
        for link in self._links.values():
            link.close()
        self._links = {}

    def _dispatch_chunk(
        self, links: tuple[_Link, ...], slot: int, body: bytes
    ) -> tuple[int, Future]:
        """Send one chunk to ``links[slot mod n]`` or the next live link."""
        for step in range(len(links)):
            owner = (slot + step) % len(links)
            link = links[owner]
            if link.dead:
                continue
            try:
                return owner, link.request(MSG_CHUNK, body)
            except WorkerDied:
                logger.warning(
                    "cluster worker %s died at dispatch; re-routing its chunk",
                    link.address,
                )
                with self._lock:
                    self._redispatched[link.address] += 1
        raise RuntimeError("all cluster workers died mid-job; re-run to reconnect")

    def _exchange(self, session, shards, spec, deliver) -> None:
        links = session
        #: (frame body, owner slot, reply future) per chunk; the body is
        #: kept so a dead worker's chunk can be sent again.
        sent: list[tuple[bytes, int, Future]] = []
        for index, (chunk, delta) in enumerate(shards):
            if delta:
                self._carried("delta", "frame")
            body = pickle.dumps((chunk, spec, delta))
            sent.append((body, *self._dispatch_chunk(links, index, body)))
        for index, (body, owner, future) in enumerate(sent):
            while True:
                try:
                    _kind, reply = future.result()
                    break
                except WorkerDied:
                    # Only this worker's chunks move: re-dispatch to the
                    # next live link and keep waiting.
                    address = links[owner].address
                    logger.warning(
                        "cluster worker %s died mid-chunk; re-dispatching chunk %d",
                        address,
                        index,
                    )
                    with self._lock:
                        self._redispatched[address] += 1
                    owner, future = self._dispatch_chunk(links, owner + 1, body)
            shard, seconds = pickle.loads(reply)
            self._carried("result", "frame")
            deliver(index, links[owner].address, shard, seconds)
