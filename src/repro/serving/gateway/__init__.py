"""Multi-tenant HTTP gateway over the labeling service.

The serving stack, outside-in:

1. :mod:`~repro.serving.gateway.wire` — minimal asyncio HTTP/1.1
   (parse, fixed responses, chunked NDJSON), stdlib only.
2. :mod:`~repro.serving.gateway.auth` — tenants, API keys
   (constant-time lookup), and the config file format.
3. :mod:`~repro.serving.gateway.quota` — per-tenant token-bucket rate
   limits and in-flight caps, enforced before the service sees a byte.
4. :mod:`~repro.serving.gateway.app` — :class:`LabelingGateway`, the
   routed edge: label/batch/job/stream endpoints riding the service's
   non-blocking ``submit_many(wait="async")`` path, with the observability
   routes mounted on the same port.

Fairness *between* admitted tenants is not the gateway's job — the
service's :class:`~repro.serving.queue.RequestQueue` always runs a
tenant stride (give it the roster's weights via ``queue_factory=...``)
and the gateway's ``spec.tenant`` stamp drives it.  Run one with
``python -m repro.cli gateway --demo-tenants`` and load it with
``benchmarks/bench_gateway_load.py``.
"""

from repro.serving.gateway.app import LabelingGateway
from repro.serving.gateway.auth import Tenant, TenantDirectory
from repro.serving.gateway.quota import Denied, TenantQuota, TokenBucket

__all__ = [
    "Denied",
    "LabelingGateway",
    "Tenant",
    "TenantDirectory",
    "TenantQuota",
    "TokenBucket",
]
