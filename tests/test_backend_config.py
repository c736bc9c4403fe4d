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
            ({"transport": "carrier-pigeon"}, "transport"),
            ({"target_chunk_s": 0.0}, "target_chunk_s"),
            ({"ring_slots": 0}, "ring_slots"),
            ({"slot_bytes": 0}, "slot_bytes"),
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
            ({"local_workers": 2, "replicas": 0}, "replicas"),
        ],
    )
    def test_cluster(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ClusterConfig(**kwargs)

    def test_cluster_normalizes_workers_to_tuple(self):
        config = ClusterConfig(workers=["a:1", "b:2"])
        assert config.workers == ("a:1", "b:2")


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
