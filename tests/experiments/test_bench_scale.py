"""Tests for the REPRO_BENCH_SCALE knob and preset scaling."""

from repro.experiments.presets import bench_config, bench_scale


class TestBenchScale:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == 2.5

    def test_scale_grows_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        small = bench_config("cifar10", "topk")
        monkeypatch.setenv("REPRO_BENCH_SCALE", "4")
        big = bench_config("cifar10", "topk")
        assert big.rounds > small.rounds
        assert big.num_train > small.num_train

    def test_floor_at_tiny_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        cfg = bench_config("cifar10", "topk")
        assert cfg.rounds >= 10
        assert cfg.num_train >= 400
