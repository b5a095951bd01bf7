"""Tests for ExperimentConfig and client sampling."""

import numpy as np
import pytest

from repro.fl.config import ALGORITHMS, ExperimentConfig
from repro.fl.sampler import UniformSampler


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.algorithm == "fedavg"
        assert cfg.clients_per_round == 5  # N=10, C=0.5

    @pytest.mark.parametrize("field,value", [
        ("algorithm", "sgd"),
        ("participation", 0.0),
        ("participation", 1.5),
        ("compression_ratio", 0.0),
        ("beta", -1.0),
        ("rounds", 0),
        ("num_clients", 0),
        ("partition", "bogus"),
        ("gamma", 0.0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("dataset", "cifar10"),  # the paper's name; the registry's is synth-cifar10
        ("model", "resnet18"),
        ("norm_mode", "bogus"),
        ("benchmark", "min"),
        ("required_overlap", 0),
        ("link_volatility", -1.0),
    ])
    def test_values_a_round_would_reject_fail_at_construction(self, field, value):
        """Each of these used to construct and die inside the first round
        (a bare KeyError for the registry names); the error names the field."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig(algorithm="bcrs_opwa", **{field: value})

    @pytest.mark.parametrize("field", ["drop_prob", "truncate_prob"])
    def test_hier_rejects_client_uplink_faults_at_construction(self, field):
        """The pair used to construct and raise from ``HierSimulation.__init__``
        — after a sweep's earlier cells had run; the error names both sides."""
        with pytest.raises(ValueError, match="mode='hier'") as err:
            ExperimentConfig(mode="hier", **{field: 0.1})
        assert field in str(err.value)
        with pytest.raises(ValueError, match="mode='hier'"):
            ExperimentConfig(**{field: 0.1}).with_(mode="hier")
        # The flat modes take faults, and hier its own failure model.
        for mode in ("sync", "semisync", "async"):
            ExperimentConfig(mode=mode, **{field: 0.1})
        ExperimentConfig(mode="hier", edge_crash_prob=0.1)

    @pytest.mark.parametrize("bits", [0, -32.0, 4e8 + 16, 33.0])
    def test_volume_override_is_a_positive_multiple_of_32(self, bits):
        """Uploads are priced at width V/32; a volume that is not a whole
        number of float32 entries fails at construction, naming the field."""
        with pytest.raises(ValueError, match="^volume_override_bits must be a positive multiple of 32"):
            ExperimentConfig(volume_override_bits=bits)

    def test_with_override(self):
        cfg = ExperimentConfig().with_(algorithm="bcrs", compression_ratio=0.1)
        assert cfg.algorithm == "bcrs"
        assert cfg.compression_ratio == 0.1
        # original untouched
        assert ExperimentConfig().algorithm == "fedavg"

    def test_all_algorithms_accepted(self):
        for alg in ALGORITHMS:
            assert ExperimentConfig(algorithm=alg).algorithm == alg

    def test_clients_per_round_at_least_one(self):
        cfg = ExperimentConfig(num_clients=3, participation=0.1)
        assert cfg.clients_per_round == 1


class TestUniformSampler:
    def test_sample_size_and_uniqueness(self):
        s = UniformSampler(10, 5, seed=0)
        sel = s.sample()
        assert len(sel) == 5
        assert len(np.unique(sel)) == 5
        assert sel.min() >= 0 and sel.max() < 10

    def test_sorted_output(self):
        s = UniformSampler(20, 7, seed=1)
        sel = s.sample()
        assert np.all(np.diff(sel) > 0)

    def test_covers_all_clients_eventually(self):
        s = UniformSampler(10, 5, seed=2)
        seen = set()
        for _ in range(50):
            seen.update(int(i) for i in s.sample())
        assert seen == set(range(10))

    def test_determinism(self):
        a = [tuple(UniformSampler(10, 3, seed=7).sample()) for _ in range(1)]
        b = [tuple(UniformSampler(10, 3, seed=7).sample()) for _ in range(1)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformSampler(5, 6)
        with pytest.raises(ValueError):
            UniformSampler(5, 0)
