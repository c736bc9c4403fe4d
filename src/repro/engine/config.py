"""Typed backend configuration: eagerly-validated, frozen, buildable.

One frozen config dataclass per backend is the only way to parameterize
one:

* every field is validated eagerly in ``__post_init__``, so a bad
  worker count or a malformed ``host:port`` fails at *config* time, not
  first-job time;
* :data:`BACKEND_REGISTRY` maps each registry name to its
  ``(backend class, config class)`` pair, so tooling can introspect
  what a backend accepts without constructing one;
* :meth:`BackendConfig.build` constructs the backend from the config's
  fields — configs are the single source of truth for constructor
  surface.

:func:`make_backend` is the one resolution entry point: a bare registry
name builds that backend's default config, a config builds itself, and
an already-constructed instance passes through.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from repro.engine.backends import (
    BatchedBackend,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.engine.cluster import ClusterBackend, _parse_address

__all__ = [
    "BACKEND_REGISTRY",
    "BackendConfig",
    "BatchedConfig",
    "ClusterConfig",
    "ProcessConfig",
    "SerialConfig",
    "make_backend",
]


@dataclass(frozen=True)
class BackendConfig:
    """Base for per-backend configs: frozen, validated, buildable."""

    #: Registry name, mirrored from the backend class.
    name: ClassVar[str]
    #: The backend class :meth:`build` constructs.
    backend_cls: ClassVar[type[ExecutionBackend]]

    def build(self) -> ExecutionBackend:
        """Construct the configured backend instance."""
        kwargs = {field.name: getattr(self, field.name) for field in fields(self)}
        return self.backend_cls(**kwargs)

    @staticmethod
    def resolve(name: str) -> "BackendConfig":
        """The default config for a registry name."""
        try:
            _, config_cls = BACKEND_REGISTRY[name]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown backend {name!r}; choose from {sorted(BACKEND_REGISTRY)}"
            ) from None
        return config_cls()


@dataclass(frozen=True)
class SerialConfig(BackendConfig):
    """Reference single-item backend; takes no parameters."""

    name: ClassVar[str] = "serial"
    backend_cls: ClassVar[type[ExecutionBackend]] = SerialBackend


@dataclass(frozen=True)
class BatchedConfig(BackendConfig):
    """Vectorized lock-step backend; takes no parameters."""

    name: ClassVar[str] = "batched"
    backend_cls: ClassVar[type[ExecutionBackend]] = BatchedBackend


@dataclass(frozen=True)
class ProcessConfig(BackendConfig):
    """Process-pool backend parameters (see :class:`ProcessPoolBackend`)."""

    name: ClassVar[str] = "process"
    backend_cls: ClassVar[type[ExecutionBackend]] = ProcessPoolBackend

    max_workers: int | None = None
    chunk_size: int | None = None
    mp_context: object = None
    vectorized: bool = True
    transport: str = "shm"
    target_chunk_s: float | None = None
    ring_slots: int | None = None
    slot_bytes: int = 1 << 20

    def __post_init__(self):
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.transport not in ("shm", "pickle"):
            raise ValueError(
                f"transport must be 'shm' or 'pickle', got {self.transport!r}"
            )
        if self.target_chunk_s is not None and self.target_chunk_s <= 0:
            raise ValueError("target_chunk_s must be positive")
        if self.ring_slots is not None and self.ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")
        if self.slot_bytes < 1:
            raise ValueError("slot_bytes must be >= 1")


@dataclass(frozen=True)
class ClusterConfig(BackendConfig):
    """Cluster backend parameters (see :class:`ClusterBackend`).

    Needs at least one worker source: ``workers`` addresses and/or a
    ``local_workers`` count.
    """

    name: ClassVar[str] = "cluster"
    backend_cls: ClassVar[type[ExecutionBackend]] = ClusterBackend

    workers: tuple[str, ...] = ()
    local_workers: int | None = None
    chunk_size: int | None = None
    vectorized: bool = True
    connect_timeout: float = 10.0
    connect_attempts: int = 3
    connect_backoff: float = 0.2
    replicas: int = 32
    mp_context: object = None

    def __post_init__(self):
        object.__setattr__(self, "workers", tuple(self.workers))
        for address in self.workers:
            _parse_address(address)
        if self.local_workers is not None and self.local_workers < 1:
            raise ValueError("local_workers must be >= 1")
        if not self.workers and not self.local_workers:
            raise ValueError(
                "cluster backend needs workers: pass workers=('host:port', ...) "
                "and/or local_workers=N"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.connect_timeout <= 0:
            raise ValueError("connect_timeout must be positive")
        if self.connect_attempts < 1:
            raise ValueError("connect_attempts must be >= 1")
        if self.connect_backoff < 0:
            raise ValueError("connect_backoff must be >= 0")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


#: Name -> (backend class, config class), for config/CLI construction.
BACKEND_REGISTRY: dict[str, tuple[type[ExecutionBackend], type[BackendConfig]]] = {
    config_cls.name: (config_cls.backend_cls, config_cls)
    for config_cls in (SerialConfig, BatchedConfig, ProcessConfig, ClusterConfig)
}


def make_backend(
    backend: str | BackendConfig | ExecutionBackend,
) -> ExecutionBackend:
    """Resolve a backend from a registry name, a typed config, or an instance."""
    if isinstance(backend, ExecutionBackend):
        return backend
    if not isinstance(backend, BackendConfig):
        backend = BackendConfig.resolve(backend)
    return backend.build()
