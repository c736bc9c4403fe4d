"""Typed backend configs: validation, registry, resolution."""

import dataclasses

import pytest

from repro.engine import (
    BACKEND_REGISTRY,
    BackendConfig,
    BatchedBackend,
    BatchedConfig,
    ClusterBackend,
    ClusterConfig,
    ProcessConfig,
    ProcessPoolBackend,
    SerialBackend,
    SerialConfig,
    make_backend,
)


class TestRegistry:
    def test_every_backend_has_a_config(self):
        assert set(BACKEND_REGISTRY) == {
            "serial",
            "batched",
            "process",
            "cluster",
        }
        for name, (backend_cls, config_cls) in BACKEND_REGISTRY.items():
            assert config_cls.name == name
            assert config_cls.backend_cls is backend_cls

    def test_configs_are_frozen(self):
        config = ProcessConfig(max_workers=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_workers = 4

    def test_build_constructs_the_right_class(self):
        assert isinstance(SerialConfig().build(), SerialBackend)
        assert isinstance(BatchedConfig().build(), BatchedBackend)
        process = ProcessConfig(max_workers=3, chunk_size=2).build()
        assert isinstance(process, ProcessPoolBackend)
        assert process.max_workers == 3
        assert process.chunk_size == 2
        cluster = ClusterConfig(local_workers=2, chunk_size=4).build()
        assert isinstance(cluster, ClusterBackend)
        assert cluster.chunk_size == 4
        cluster.close()


class TestValidation:
    """Bad values fail at config time, before any pool or socket exists."""

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"max_workers": 0}, "max_workers"),
            ({"chunk_size": 0}, "chunk_size"),
            ({"max_workers": -2}, "max_workers"),
            ({"chunk_size": -1}, "chunk_size"),
        ],
    )
    def test_process(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ProcessConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({}, "needs workers"),
            ({"workers": ("nocolon",)}, "host:port"),
            ({"workers": ("host:notaport",)}, "host:port"),
            ({"local_workers": 0}, "local_workers"),
            ({"local_workers": 2, "chunk_size": 0}, "chunk_size"),
            ({"local_workers": 2, "connect_timeout": 0.0}, "connect_timeout"),
        ],
    )
    def test_cluster(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ClusterConfig(**kwargs)

    def test_cluster_normalizes_workers_to_tuple(self):
        config = ClusterConfig(workers=["a:1", "b:2"])
        assert config.workers == ("a:1", "b:2")

    def test_config_and_constructor_share_one_gate(self):
        # Both entry points fail eagerly, with the same message, because
        # both call the backend class's check_fields.
        for config_cls, kwargs in (
            (ProcessConfig, {"max_workers": 0}),
            (ClusterConfig, {"local_workers": 2, "connect_backoff": -1.0}),
        ):
            with pytest.raises(ValueError) as from_config:
                config_cls(**kwargs)
            with pytest.raises(ValueError) as from_constructor:
                config_cls.backend_cls(**kwargs)
            assert str(from_config.value) == str(from_constructor.value)


class TestRemovedSpellings:
    """Options no caller selected are gone, not deprecated."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ProcessConfig(transport="pickle"),
            lambda: ProcessConfig(target_chunk_s=0.01),
            lambda: ProcessConfig(slot_bytes=1 << 20),
            lambda: ProcessConfig(ring_slots=8),
            lambda: ProcessPoolBackend(vectorized=False),
            lambda: ProcessPoolBackend(ring_slots=8),
            lambda: ClusterConfig(local_workers=2, vectorized=False),
            lambda: ClusterConfig(replicas=32),
            lambda: ClusterBackend(workers=("host:1",), replicas=32),
        ],
        ids=[
            "ProcessConfig-transport",
            "ProcessConfig-target_chunk_s",
            "ProcessConfig-slot_bytes",
            "ProcessConfig-ring_slots",
            "ProcessPoolBackend-vectorized",
            "ProcessPoolBackend-ring_slots",
            "ClusterConfig-vectorized",
            "ClusterConfig-replicas",
            "ClusterBackend-replicas",
        ],
    )
    def test_removed_backend_option_is_a_type_error(self, build):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build()

    def test_config_fields_are_exactly_the_constructor_surface(self):
        assert [f.name for f in dataclasses.fields(ProcessConfig)] == [
            "max_workers",
            "chunk_size",
            "mp_context",
        ]
        assert "vectorized" not in {f.name for f in dataclasses.fields(ClusterConfig)}

    def test_cluster_config_has_no_placement_knob(self):
        # Placement is round-robin over live links; nothing to tune.
        assert [f.name for f in dataclasses.fields(ClusterConfig)] == [
            "workers",
            "local_workers",
            "chunk_size",
            "connect_timeout",
            "connect_attempts",
            "connect_backoff",
            "mp_context",
        ]


class TestResolution:
    def test_bare_names_resolve_silently(self, recwarn):
        for name in BACKEND_REGISTRY:
            if name == "cluster":
                continue  # no default worker source; see below
            config = BackendConfig.resolve(name)
            assert config.name == name
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_cluster_needs_a_worker_source_even_by_name(self):
        with pytest.raises(ValueError, match="needs workers"):
            BackendConfig.resolve("cluster")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            BackendConfig.resolve("gpu")


class TestMakeBackend:
    def test_name_and_config_and_instance(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        process = make_backend(ProcessConfig(max_workers=2))
        assert isinstance(process, ProcessPoolBackend)
        assert process.max_workers == 2
        backend = BatchedBackend()
        assert make_backend(backend) is backend

    def test_instance_with_kwargs_is_a_type_error(self):
        with pytest.raises(TypeError):
            make_backend(BatchedBackend(), max_workers=4)

    def test_config_with_kwargs_is_a_type_error(self):
        with pytest.raises(TypeError):
            make_backend(ProcessConfig(), max_workers=4)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")
