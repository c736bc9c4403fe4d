"""Shared-memory rings and the fixed-dtype codecs every transport carries.

The :mod:`repro.engine.sharded` protocol ships two payload kinds between
a dispatcher and its workers: *chunk deltas* (the
:class:`~repro.zoo.oracle.ItemRecord` shards recorded after the worker's
world snapshot) going down, and *trace shards*
(:class:`~repro.scheduling.base.ScheduleTrace` lists) coming back.  Both
are numeric at heart — id/conf arrays, per-execution rows — so they
travel in compact fixed-dtype layouts, never as pickled objects:

* :func:`encode_records` / :func:`decode_records` — the *scheduling
  surface* of an :class:`ItemRecord`: its valuable offsets/ids/confs
  columns, written with ``tobytes`` on the arrays the record already
  holds.  Decoding builds numpy views directly into the buffer — no
  per-array copies — with stub item content; aggregates (solo values,
  best confidences, total value) are derived from the columns on first
  read.  Workers only schedule against the record cache, they never
  execute models on shipped items.
* :func:`encode_traces` / :func:`decode_traces` — per-trace headers plus
  one structured row per execution.
* :class:`SlotRing` — the process pool's carrier: one
  :mod:`multiprocessing.shared_memory` block divided into fixed-size
  slots with a byte of state each.  The parent creates a *delta* ring it
  writes and workers read, and a *result* ring workers write and the
  parent reads.  Only a tiny ``(slot, length)`` descriptor crosses the
  pipe; the payload itself is written once and read in place.

Carrier contract: there is one encoding and no second serialization to
fall back to.  :func:`encode_records` refuses, with ``TypeError``, a
record that is not a plain :class:`ItemRecord` (a custom zoo may subclass
it with state the layout cannot carry) or a shard of inconsistent shape.
What varies is only how the encoded bytes travel — a ring slot, inline
through the executor pipe when a payload outgrows its slot or the ring
is momentarily full, a TCP frame on the cluster — and the decoders
bounds-check everything they are handed, because on the cluster those
bytes come off a socket.

Lifetime contract: arrays produced by :func:`decode_records` alias the
buffer they were decoded from, so on the ring they are valid only while
the producing slot is held.  The backend holds each delta slot until the
chunk's future completes and workers copy nothing — adopted records live
exactly as long as the chunk that shipped them (the worker releases them
afterwards).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import islice, starmap
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.data.datasets import DataItem
from repro.scheduling.base import ScheduledExecution, ScheduleTrace
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import ItemRecord

#: One structured row per execution in a trace shard.
EXEC_DTYPE = np.dtype(
    [
        ("model", np.int32),
        ("new_labels", np.int32),
        ("start", np.float64),
        ("finish", np.float64),
        ("marginal", np.float64),
    ]
)

#: Per-trace header preceding its execution rows.
TRACE_HEAD_DTYPE = np.dtype([("total", np.float64), ("n_exec", np.int64)])

_FREE, _HELD = 0, 1


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without registering it for cleanup.

    Only the creating process may own (and eventually unlink) the block.
    Python 3.13 grew ``track=False`` for exactly this; on earlier
    interpreters the resource tracker would otherwise unlink the segment
    when the *worker* exits (cpython#82300), so we unregister manually.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - exercised on Python < 3.13
        # Suppress registration rather than unregistering afterwards:
        # the whole process tree shares one tracker, so a worker's
        # unregister would cancel the parent's (sole, legitimate)
        # registration and later unregisters would error in the tracker.
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SlotRing:
    """A ring of fixed-size payload slots inside one shared-memory block.

    Layout: ``[hint u32][state u8 x slots][pad to 8][slot data ...]``.
    Each slot is either free or held; ``acquire`` scans round-robin from
    a rotation hint so successive payloads spread across the ring.  The
    ring itself is not a lock — callers serialize acquirers externally
    (the backend uses a :class:`threading.Lock` on the parent-owned ring
    and a ``multiprocessing.Lock`` on the worker-written one).  Releasing
    is a single byte store and needs no lock.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        slots: int,
        slot_bytes: int,
        owner: bool,
    ):
        self._shm = shm
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._owner = owner
        self._data_offset = (4 + slots + 7) & ~7

    @classmethod
    def create(cls, slots: int, slot_bytes: int) -> SlotRing:
        if slots <= 0 or slot_bytes <= 0:
            raise ValueError("slots and slot_bytes must be positive")
        size = ((4 + slots + 7) & ~7) + slots * slot_bytes
        shm = shared_memory.SharedMemory(create=True, size=size)
        ring = cls(shm, slots, slot_bytes, owner=True)
        shm.buf[: 4 + slots] = bytes(4 + slots)
        return ring

    @classmethod
    def attach(
        cls, name: str, slots: int, slot_bytes: int, untrack: bool = True
    ) -> SlotRing:
        """Attach to an existing ring by name.

        ``untrack`` (the default) is for *worker processes*: it keeps the
        worker's resource tracker from unlinking the parent's segment on
        worker exit.  Pass ``untrack=False`` when attaching a second
        handle inside the creating process (tests do) — untracking there
        would cancel the creator's own registration.
        """
        if untrack:
            return cls(_attach_untracked(name), slots, slot_bytes, owner=False)
        return cls(
            shared_memory.SharedMemory(name=name), slots, slot_bytes, owner=False
        )

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def spec(self) -> RingSpec:
        return RingSpec(self.name, self.slots, self.slot_bytes)

    # -- slot state ----------------------------------------------------------

    def _hint(self) -> int:
        return struct.unpack_from("<I", self._shm.buf, 0)[0]

    def acquire(self) -> int | None:
        """Claim the next free slot, or ``None`` when the ring is full.

        Callers must hold the ring's external acquirer lock.  A closed
        ring reads as full (the teardown race :meth:`release` tolerates).
        """
        buf = self._shm.buf
        if buf is None:
            return None
        start = self._hint() % self.slots
        for step in range(self.slots):
            slot = (start + step) % self.slots
            if buf[4 + slot] == _FREE:
                buf[4 + slot] = _HELD
                struct.pack_into("<I", buf, 0, (slot + 1) % self.slots)
                return slot
        return None

    def release(self, slot: int) -> None:
        """Free a slot (single byte store; safe cross-process, no lock).

        No-op on a closed ring: a teardown racing a late release (a
        broken pool being dropped while another thread frees its chunk's
        slot) must not raise.
        """
        buf = self._shm.buf
        if buf is not None:
            buf[4 + slot] = _FREE

    def held(self, slot: int) -> bool:
        return self._shm.buf[4 + slot] == _HELD

    # -- payload -------------------------------------------------------------

    def write(self, slot: int, payload: bytes) -> int:
        """Copy ``payload`` into a held slot; returns its length."""
        length = len(payload)
        if length > self.slot_bytes:
            raise ValueError(
                f"payload of {length} bytes exceeds slot size {self.slot_bytes}"
            )
        offset = self._data_offset + slot * self.slot_bytes
        self._shm.buf[offset : offset + length] = payload
        return length

    def view(self, slot: int, length: int) -> memoryview:
        """Zero-copy view of a slot's first ``length`` bytes."""
        if length > self.slot_bytes:
            raise ValueError(
                f"requested {length} bytes from a {self.slot_bytes}-byte slot"
            )
        offset = self._data_offset + slot * self.slot_bytes
        return self._shm.buf[offset : offset + length]

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - views still alive
            pass

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


@dataclass(frozen=True)
class RingSpec:
    """Picklable handle a worker uses to attach to a parent's ring."""

    name: str
    slots: int
    slot_bytes: int

    def attach(self) -> SlotRing:
        return SlotRing.attach(self.name, self.slots, self.slot_bytes)


# -- record codec ------------------------------------------------------------
#
# Layout (little-endian; every section is a multiple of 8 bytes, so all
# numeric views are aligned):
#
#   <Q n_items> <Q n_models> <Q n_labels>
#   per item:
#     <Q padded_id_len> <Q id_len>  id_bytes (padded to 8)
#     valuable offsets   i64[n_models + 1]
#     valuable ids       i64[offsets[-1]]
#     valuable confs     f64[offsets[-1]]
#
# These are the record's own ``valuable_columns``; solo values, the dense
# best-confidence vector and the total value are derived from them on the
# receiving side, on first read.

_SHARD_HEAD = struct.Struct("<QQQ")
_ITEM_HEAD = struct.Struct("<QQ")


def encode_records(records: list[ItemRecord]) -> bytes | None:
    """Pack records' scheduling surface (``None`` for an empty shard).

    Raises ``TypeError`` when any record is not a plain
    :class:`ItemRecord` (a custom zoo may subclass it with state this
    layout cannot carry) or the shard is inconsistent in shape: there is
    no other encoding to fall back to.
    """
    if not records:
        return None
    n_models = records[0].n_models
    n_labels = records[0].n_labels
    parts: list[bytes] = [_SHARD_HEAD.pack(len(records), n_models, n_labels)]
    for record in records:
        if type(record) is not ItemRecord:
            raise TypeError(
                f"cannot encode {type(record).__name__}: only plain ItemRecord "
                "has a wire layout"
            )
        if record.n_models != n_models or record.n_labels != n_labels:
            raise TypeError(
                f"record {record.item.item_id!r} is {record.n_models} models x "
                f"{record.n_labels} labels in a shard of {n_models} x {n_labels}"
            )
        id_bytes = record.item.item_id.encode("utf-8")
        pad = -len(id_bytes) % 8
        offsets, ids, confs = record.valuable_columns
        parts += (
            _ITEM_HEAD.pack(len(id_bytes) + pad, len(id_bytes)),
            id_bytes,
            bytes(pad),
            offsets.tobytes(),
            ids.tobytes(),
            confs.tobytes(),
        )
    return b"".join(parts)


def _read_array(buf, dtype: type, count: int, offset: int) -> tuple[np.ndarray, int]:
    """A read-only view of ``count`` 8-byte elements, bounds-checked first."""
    end = offset + 8 * count
    if end > len(buf):
        raise ValueError(
            f"record shard declares {count} elements at byte {offset} but "
            f"holds only {len(buf)} bytes"
        )
    array = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    array.flags.writeable = False
    return array, end


def decode_records(buf, zoo: ModelZoo) -> list[ItemRecord]:
    """Rebuild records from :func:`encode_records` bytes, zero-copy.

    The columns are read-only views into ``buf`` (valid only while the
    producing slot is held — see the module docstring); every declared
    count is checked against the buffer before a view is taken, so a
    truncated or corrupted shard raises ``ValueError`` instead of reading
    out of bounds.  ``item`` carries no content and the columns hold the
    valuable emissions only: shipped records exist to be *scheduled
    against*, and everything on that path (state updates, oracle gains,
    value accounting) derives from the columns encoded here.
    """
    size = len(buf)
    if size < _SHARD_HEAD.size:
        raise ValueError(f"record shard of {size} bytes has no header")
    n_items, n_models, n_labels = _SHARD_HEAD.unpack_from(buf, 0)
    if n_models != len(zoo) or n_labels != len(zoo.space):
        raise ValueError(
            f"shard encoded for {n_models} models / {n_labels} labels but the "
            f"zoo has {len(zoo)} / {len(zoo.space)}"
        )
    offset = _SHARD_HEAD.size
    records: list[ItemRecord] = []
    for _ in range(n_items):
        if offset + _ITEM_HEAD.size > size:
            raise ValueError(f"record shard truncated at item {len(records)}")
        padded, id_len = _ITEM_HEAD.unpack_from(buf, offset)
        offset += _ITEM_HEAD.size
        if id_len > padded or padded % 8 or offset + padded > size:
            raise ValueError(
                f"record shard declares a {padded}/{id_len}-byte item id at "
                f"byte {offset} of {size}"
            )
        item_id = bytes(buf[offset : offset + id_len]).decode("utf-8")
        offset += padded
        offsets, offset = _read_array(buf, np.int64, n_models + 1, offset)
        total = int(offsets[-1])
        if offsets[0] != 0 or total < 0 or (np.diff(offsets) < 0).any():
            raise ValueError(f"record for {item_id!r} has corrupt model offsets")
        ids, offset = _read_array(buf, np.int64, total, offset)
        confs, offset = _read_array(buf, np.float64, total, offset)
        records.append(
            ItemRecord(
                item=DataItem(
                    item_id=item_id,
                    dataset=item_id.split("/", 1)[0],
                    index=-1,
                    content=None,
                ),
                offsets=offsets,
                ids=ids,
                confs=confs,
                valuable=np.ones(total, dtype=bool),
                n_labels=n_labels,
            )
        )
    return records


# -- trace codec -------------------------------------------------------------


def encode_traces(traces: list[ScheduleTrace]) -> bytes:
    """Pack traces as ``<Q n>`` + headers + execution rows.

    Item ids are *not* encoded: the parent knows the chunk's ordered ids
    and reattaches them (plus model names) on decode.
    """
    n = len(traces)
    heads = np.empty(n, dtype=TRACE_HEAD_DTYPE)
    rows = np.empty(
        sum(len(t.executions) for t in traces), dtype=EXEC_DTYPE
    )
    cursor = 0
    for i, trace in enumerate(traces):
        heads[i] = (trace.total_value, len(trace.executions))
        for execution in trace.executions:
            rows[cursor] = (
                execution.model_index,
                execution.new_labels,
                execution.start_time,
                execution.finish_time,
                execution.marginal_value,
            )
            cursor += 1
    return struct.pack("<Q", n) + heads.tobytes() + rows.tobytes()


def decode_traces(
    buf, item_ids: list[str], model_names: tuple[str, ...]
) -> list[ScheduleTrace]:
    """Rebuild traces, pairing them positionally with ``item_ids``.

    Like :func:`decode_records`, trusts nothing it is handed: the header,
    every execution count, the row block and every model index are
    checked against the buffer and the zoo first, so a truncated or
    corrupted shard raises ``ValueError`` naming the offending field
    instead of decoding to a wrong trace.
    """
    size = len(buf)
    if size < 8:
        raise ValueError(f"trace shard of {size} bytes has no header")
    (n,) = struct.unpack_from("<Q", buf, 0)
    if n != len(item_ids):
        raise ValueError(
            f"shard holds {n} traces but {len(item_ids)} item ids were given"
        )
    offset = 8
    if offset + n * TRACE_HEAD_DTYPE.itemsize > size:
        raise ValueError(f"trace shard of {size} bytes is too short for {n} headers")
    heads = np.frombuffer(buf, dtype=TRACE_HEAD_DTYPE, count=n, offset=offset)
    offset += heads.nbytes
    n_exec = heads["n_exec"]
    room = (size - offset) // EXEC_DTYPE.itemsize
    if n and (n_exec.min() < 0 or n_exec.max() > room):
        raise ValueError(
            f"trace shard declares n_exec in [{n_exec.min()}, {n_exec.max()}] "
            f"with room for {room} execution rows"
        )
    total_rows = int(n_exec.sum())
    if total_rows > room:
        raise ValueError(
            f"trace shard declares {total_rows} execution rows with room for {room}"
        )
    rows = np.frombuffer(buf, dtype=EXEC_DTYPE, count=total_rows, offset=offset)
    models = rows["model"]
    if total_rows and (models.min() < 0 or models.max() >= len(model_names)):
        raise ValueError(
            f"trace shard names model in [{models.min()}, {models.max()}] but "
            f"the zoo has {len(model_names)} models"
        )
    # One .tolist() per column, then positional construction: indexing a
    # structured scalar per row costs more than the rest of the decode.
    indices = models.tolist()
    names = map(model_names.__getitem__, indices)
    times = [rows[field].tolist() for field in ("start", "finish", "marginal")]
    labels = rows["new_labels"].tolist()
    executions = starmap(ScheduledExecution, zip(indices, names, *times, labels))
    return [
        ScheduleTrace(item_id, total, list(islice(executions, count)))
        for item_id, total, count in zip(
            item_ids, heads["total"].tolist(), n_exec.tolist()
        )
    ]
