"""Tenant identity for the gateway: API keys, weights, quota limits.

A :class:`Tenant` is one paying (or free) caller of the labeling
gateway: a name, a bearer API key, a tenant-stride fairness weight (fed
to :class:`~repro.serving.queue.RequestQueue`), and the
quota knobs :mod:`repro.serving.gateway.quota` enforces.  The
:class:`TenantDirectory` holds all of them and answers the only
security-relevant question — *which tenant presented this key?* — in
constant time with respect to key contents: every lookup compares the
SHA-256 digest of the presented key against **every** enrolled digest
via :func:`hmac.compare_digest`, so neither an early-exit on the first
byte mismatch nor the position of the matching tenant leaks timing.

Directories load from a JSON config file (``from_file``), an environment
variable holding the same JSON (``from_env``), or the deterministic
:meth:`TenantDirectory.demo` roster used by tests, the CLI's
``--demo-tenants`` flag, and the load benchmark.  Config format::

    {"tenants": [
        {"name": "acme", "api_key": "s3cret", "weight": 4.0,
         "rate": 500.0, "burst": 100, "max_inflight": 256},
        {"name": "free-tier", "api_key": "hunter2"}
    ]}

Only ``name`` and ``api_key`` are required; the rest default to an
unthrottled weight-1 tenant (quota enforcement off until configured).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["Tenant", "TenantDirectory"]


def _digest(key: str) -> bytes:
    return hashlib.sha256(key.encode("utf-8")).digest()


@dataclass(frozen=True)
class Tenant:
    """One gateway caller: identity plus fairness/quota configuration.

    Attributes
    ----------
    name:
        Stable tenant identifier; becomes :attr:`LabelingSpec.tenant`
        (cache partition + fairness group) and the ``tenant`` label on
        metrics.
    api_key:
        The bearer secret clients present (``Authorization: Bearer ...``
        or ``X-API-Key``).
    weight:
        Outer-stride service weight — a weight-4 tenant is served 4x the
        batch share of a weight-1 tenant under contention.
    rate:
        Sustained request admission rate (requests/second refill of the
        token bucket); ``inf`` disables rate limiting.
    burst:
        Token-bucket capacity — how many requests may land back-to-back
        before the sustained ``rate`` applies.
    max_inflight:
        Cap on this tenant's concurrently admitted (not yet resolved)
        requests; breaching it is a 429, not queue growth.
    """

    name: str
    api_key: str = field(repr=False)
    weight: float = 1.0
    rate: float = math.inf
    burst: int = 64
    max_inflight: int = 1 << 30

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.api_key:
            raise ValueError(f"tenant {self.name!r} needs a non-empty api_key")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"tenant {self.name!r} weight must be positive and finite")
        if not self.rate > 0:  # NaN fails too; inf means unlimited
            raise ValueError(f"tenant {self.name!r} rate must be positive")
        if self.burst < 1:
            raise ValueError(f"tenant {self.name!r} burst must be >= 1")
        if self.max_inflight < 1:
            raise ValueError(f"tenant {self.name!r} max_inflight must be >= 1")

    @classmethod
    def from_dict(cls, obj: dict) -> "Tenant":
        """Build from one config-file entry (unknown keys rejected)."""
        known = {"name", "api_key", "weight", "rate", "burst", "max_inflight"}
        extra = set(obj) - known
        if extra:
            raise ValueError(
                f"unknown tenant config keys {sorted(extra)} "
                f"(expected a subset of {sorted(known)})"
            )
        kwargs = dict(obj)
        if isinstance(kwargs.get("rate"), str):  # allow "inf" in JSON
            kwargs["rate"] = float(kwargs["rate"])
        return cls(**kwargs)


class TenantDirectory:
    """All enrolled tenants, with constant-time API-key authentication."""

    def __init__(self, tenants: Iterable[Tenant]):
        roster = list(tenants)
        if not roster:
            raise ValueError("a TenantDirectory needs at least one tenant")
        names = [t.name for t in roster]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        if len({t.api_key for t in roster}) != len(roster):
            raise ValueError("tenant api keys must be unique")
        self._by_name = {t.name: t for t in roster}
        self._digests = [(_digest(t.api_key), t) for t in roster]

    def authenticate(self, presented: str | None) -> Tenant | None:
        """The tenant owning ``presented``, or ``None``.

        Scans the *entire* roster comparing SHA-256 digests with
        :func:`hmac.compare_digest` — no early exit on match or
        mismatch, so response timing is independent of both the key
        bytes and which tenant (if any) matched.
        """
        if not presented:
            return None
        presented_digest = _digest(presented)
        matched: Tenant | None = None
        for digest, tenant in self._digests:
            if hmac.compare_digest(digest, presented_digest):
                matched = tenant
        return matched

    def get(self, name: str) -> Tenant | None:
        return self._by_name.get(name)

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def weights(self) -> dict[str, float]:
        """``tenant_weights`` mapping for :class:`~repro.serving.queue.RequestQueue`."""
        return {t.name: t.weight for t in self._by_name.values()}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "TenantDirectory":
        """Build from the parsed config format (see module docstring)."""
        if not isinstance(obj, dict) or "tenants" not in obj:
            raise ValueError('tenant config must be {"tenants": [...]}')
        return cls(Tenant.from_dict(entry) for entry in obj["tenants"])

    @classmethod
    def from_file(cls, path: str) -> "TenantDirectory":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    @classmethod
    def from_env(cls, var: str = "REPRO_GATEWAY_TENANTS") -> "TenantDirectory":
        """Load from a JSON blob in environment variable ``var``."""
        raw = os.environ.get(var)
        if not raw:
            raise ValueError(f"environment variable {var} is empty or unset")
        return cls.from_json(json.loads(raw))

    @classmethod
    def demo(cls, n: int = 3) -> "TenantDirectory":
        """``n`` deterministic demo tenants (keys ``demo-key-tenant-i``).

        Tenant 0 gets weight 4 (a "paid" tier) so weighted-fairness
        behaviour shows up out of the box; all are otherwise
        unthrottled.  For tests, demos, and the load benchmark only —
        the keys are public by construction.
        """
        if n < 1:
            raise ValueError("demo directory needs n >= 1")
        return cls(
            Tenant(
                name=f"tenant-{i}",
                api_key=f"demo-key-tenant-{i}",
                weight=4.0 if i == 0 else 1.0,
            )
            for i in range(n)
        )
