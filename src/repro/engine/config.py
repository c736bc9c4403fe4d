"""Typed backend configuration: eagerly-validated, frozen, buildable.

One frozen config dataclass per backend is the only way to parameterize
one:

* every field is validated eagerly in ``__post_init__`` — by the backend
  class's own ``check_fields``, the same gate its constructor calls — so
  a bad worker count or a malformed ``host:port`` fails at *config* time,
  not first-job time;
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

from repro.engine.backends import BatchedBackend, ExecutionBackend, SerialBackend
from repro.engine.cluster import ClusterBackend
from repro.engine.process import ProcessPoolBackend

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

    def __post_init__(self):
        self.backend_cls.check_fields(**self._kwargs())

    def _kwargs(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def build(self) -> ExecutionBackend:
        """Construct the configured backend instance."""
        return self.backend_cls(**self._kwargs())

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
    connect_timeout: float = 10.0
    connect_attempts: int = 3
    connect_backoff: float = 0.2
    mp_context: object = None

    def __post_init__(self):
        object.__setattr__(self, "workers", tuple(self.workers))
        super().__post_init__()


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
