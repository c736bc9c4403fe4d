"""The request queue's dispatch rule, stated once, independently of it.

:class:`StrideModel` replays ``put`` / ``pop_batch(max_items, 0.0)``
sequences on plain dicts and deques and says which items each batch
holds, in which order, and why it flushed.  It imports nothing from
``repro.serving``, so a defect in the queue's bookkeeping (stale groups,
a charge on the wrong level, a mis-ranked tie) shows as a trace mismatch
instead of being mirrored.

The rule, two stride levels of the same shape:

* A *level* holds live entries, each with a ``pass``, owed entries (left
  with a pass above ``vtime``) and a virtual time ``vtime``.  An entry
  joins at ``vtime``, or at the pass it left with while that is owed;
  the entry with the lowest ``(pass, earliest queued arrival)`` is
  picked; charging ``cost`` sets ``vtime = max(vtime, pass)`` and then
  ``pass = pass + cost``; an entry whose backlog empties leaves and is
  owed.  After every pop each level settles: ``vtime`` rises to the
  highest owed pass, but no higher than the lowest live pass, and owed
  passes at or below ``vtime`` are forgotten.
* The outer level's entries are tenants (``None`` is a tenant), charged
  ``n / tenant_weight``; each tenant owns an inner level, fresh at
  ``vtime = 0`` whenever the tenant joins, whose entries are batch keys,
  charged ``n / 2 ** clamp(max priority in the batch, -32, 32)``.
* A batch is up to ``max_items`` arrivals from the picked key's FIFO.  It
  flushes for ``"size"`` when full, otherwise for ``"regime_split"`` if
  anything else is still queued and ``"wait"`` if not.
"""

from __future__ import annotations

import math
from collections import deque


def priority_weight(priority: int) -> float:
    return 2.0 ** min(max(priority, -32), 32)


class _Level:
    """One stride level: live entries' passes plus the level's vtime."""

    def __init__(self):
        self.vtime = 0.0
        self.passes: dict = {}
        self.owed: dict = {}  # drained entries whose pass is above vtime

    def join(self, name) -> None:
        if name not in self.passes:
            self.passes[name] = max(self.vtime, self.owed.pop(name, self.vtime))

    def pick(self, head):
        return min(self.passes, key=lambda name: (self.passes[name], head(name)))

    def charge(self, name, cost: float) -> None:
        self.vtime = max(self.vtime, self.passes[name])
        self.passes[name] += cost

    def leave(self, name) -> None:
        self.owed[name] = self.passes.pop(name)

    def settle(self) -> None:
        if self.owed:
            floor = min(self.passes.values(), default=math.inf)
            self.vtime = max(self.vtime, min(floor, max(self.owed.values())))
            self.owed = {n: p for n, p in self.owed.items() if p > self.vtime}


class StrideModel:
    """Reference two-level stride dispatcher (see module docstring)."""

    def __init__(self, tenant_weights=None, default_tenant_weight: float = 1.0):
        self.weights = dict(tenant_weights or {})
        self.default_weight = default_tenant_weight
        self.tenants = _Level()
        self.keys: dict = {}  # tenant -> its inner _Level
        self.fifos: dict = {}  # (tenant, key) -> deque of (seq, ident, priority)
        self.seq = 0

    def put(self, ident, tenant, key, priority: int = 0) -> None:
        if tenant not in self.keys:
            self.tenants.join(tenant)
            self.keys[tenant] = _Level()
        self.keys[tenant].join(key)
        self.fifos.setdefault((tenant, key), deque()).append(
            (self.seq, ident, priority)
        )
        self.seq += 1

    def pop(self, max_items: int):
        """``(tenant, key, idents, reason)`` of the next batch, or ``None``."""
        if not self.fifos:
            return None

        def tenant_head(tenant):
            return min(self.fifos[tenant, k][0][0] for k in self.keys[tenant].passes)

        tenant = self.tenants.pick(tenant_head)
        inner = self.keys[tenant]
        key = inner.pick(lambda key: self.fifos[tenant, key][0][0])
        fifo = self.fifos[tenant, key]
        taken = [fifo.popleft() for _ in range(min(max_items, len(fifo)))]
        n = len(taken)
        inner.charge(key, n / priority_weight(max(p for _, _, p in taken)))
        self.tenants.charge(tenant, n / self.weights.get(tenant, self.default_weight))
        if not fifo:
            del self.fifos[tenant, key]
            inner.leave(key)
            if not inner.passes:
                self.tenants.leave(tenant)
                del self.keys[tenant]
        for level in (*self.keys.values(), self.tenants):
            level.settle()
        if n == max_items:
            reason = "size"
        else:
            reason = "regime_split" if self.fifos else "wait"
        return tenant, key, [ident for _, ident, _ in taken], reason
