"""Configuration presets and validation."""

import pytest

from repro.config import (
    TrainConfig,
    WorldConfig,
    bench_scale,
    get_scale,
    paper_scale,
    smoke_scale,
)


def _overrides_id(overrides: dict) -> str:
    return ",".join(f"{key}={value}" for key, value in overrides.items())


class TestWorldConfig:
    def test_defaults_match_paper(self):
        config = WorldConfig()
        assert config.vocab_scale == "full"
        assert config.zoo_total_time == pytest.approx(5.16)
        assert config.valuable_confidence == 0.5

    def test_with_seed(self):
        config = WorldConfig().with_seed(42)
        assert config.seed == 42
        assert config.vocab_scale == "full"


class TestTrainConfig:
    def test_with_override(self):
        config = TrainConfig().with_(episodes=7, gamma=0.0)
        assert config.episodes == 7
        assert config.gamma == 0.0
        # untouched fields keep defaults
        assert config.hidden_size == TrainConfig().hidden_size

    def test_default_gamma_near_myopic(self):
        """The gamma ablation motivated this default; guard it."""
        assert TrainConfig().gamma <= 0.5

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(episodes=-3),
            dict(episodes=0),
            dict(hidden_size=0),
            dict(batch_size=0),
            dict(replay_capacity=0),
            dict(update_every=0),
            dict(target_sync_every=0),
            dict(warmup_steps=-1),
            dict(gamma=-0.1),
            dict(gamma=1.0),
            dict(gamma=float("nan")),
            dict(learning_rate=0.0),
            dict(learning_rate=-1e-3),
            dict(learning_rate=float("inf")),
            dict(learning_rate=float("nan")),
            dict(epsilon_start=1.5),
            dict(epsilon_end=-0.1),
            dict(epsilon_start=0.1, epsilon_end=0.2),
        ],
        ids=_overrides_id,
    )
    def test_rejects_values_that_void_or_crash_training(self, overrides):
        with pytest.raises(ValueError):
            TrainConfig(**overrides)
        with pytest.raises(ValueError):
            TrainConfig().with_(**overrides)

    @pytest.mark.parametrize(
        "overrides", [dict(episodes=2.0), dict(batch_size=True)], ids=_overrides_id
    )
    def test_rejects_non_integer_counts(self, overrides):
        with pytest.raises(TypeError, match="must be an integer"):
            TrainConfig(**overrides)

    def test_accepts_the_boundaries(self):
        config = TrainConfig(
            episodes=1,
            warmup_steps=0,
            gamma=0.0,
            epsilon_start=0.0,
            epsilon_end=0.0,
            update_every=1,
        )
        assert config.warmup_steps == 0 and config.epsilon_start == 0.0


class TestScales:
    def test_three_presets(self):
        for name, factory in (
            ("smoke", smoke_scale),
            ("bench", bench_scale),
            ("paper", paper_scale),
        ):
            scale = factory()
            assert scale.name == name
            assert get_scale(name).name == name

    def test_smoke_is_mini_world(self):
        assert smoke_scale().world.vocab_scale == "mini"
        assert not smoke_scale().is_full_world

    def test_bench_and_paper_are_full_world(self):
        assert bench_scale().is_full_world
        assert paper_scale().is_full_world

    def test_paper_trains_longer_than_bench(self):
        assert paper_scale().train.episodes > bench_scale().train.episodes
        assert paper_scale().items_per_dataset > bench_scale().items_per_dataset

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            get_scale("galactic")

    def test_seed_threading(self):
        assert get_scale("bench", seed=7).world.seed == 7
