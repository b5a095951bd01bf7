"""Tests for link sampling, time-varying links and round-time metrics."""

import numpy as np
import pytest

from repro.network.cost import LinkSpec
from repro.network.links import MBIT, PAPER_LINK_MODEL, LinkModel, TimeVaryingLink, sample_links
from repro.network.metrics import RoundTimes, TimeAccumulator


class TestLinkSampling:
    def test_paper_distribution_moments(self):
        links = sample_links(5000, PAPER_LINK_MODEL, seed=0)
        bws = np.array([link.bandwidth_bps for link in links])
        lats = np.array([link.latency_s for link in links])
        assert bws.mean() == pytest.approx(1.0 * MBIT, rel=0.02)
        assert bws.std() == pytest.approx(0.2 * MBIT, rel=0.05)
        assert lats.min() > 0.050 and lats.max() <= 0.200
        assert lats.mean() == pytest.approx(0.125, abs=0.005)

    def test_bandwidth_floor(self):
        model = LinkModel(bandwidth_mean_bps=0.1 * MBIT, bandwidth_std_bps=1.0 * MBIT)
        links = sample_links(200, model, seed=0)
        assert min(link.bandwidth_bps for link in links) >= model.bandwidth_floor_bps

    def test_determinism(self):
        a = sample_links(10, seed=5)
        b = sample_links(10, seed=5)
        assert a == b

    def test_rejects_zero_clients(self):
        with pytest.raises(ValueError):
            sample_links(0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LinkModel(latency_low_s=0.3, latency_high_s=0.2)


class TestTimeVaryingLink:
    def test_stays_positive_and_reverts(self):
        base = LinkSpec(bandwidth_bps=1e6, latency_s=0.1)
        link = TimeVaryingLink(base, np.random.default_rng(0), volatility=0.2)
        bws = [link.step().bandwidth_bps for _ in range(500)]
        assert min(bws) > 0
        # Mean reversion keeps the long-run level near the base value.
        assert np.median(bws) == pytest.approx(1e6, rel=0.35)

    def test_zero_volatility_fixed(self):
        base = LinkSpec(bandwidth_bps=2e6, latency_s=0.1)
        link = TimeVaryingLink(base, np.random.default_rng(0), volatility=0.0)
        assert [link.step().bandwidth_bps for _ in range(5)] == [2e6] * 5


class TestRoundTimes:
    def test_validation(self):
        with pytest.raises(ValueError):
            RoundTimes(actual=1.0, maximum=1.0, minimum=2.0)


class TestTimeAccumulator:
    def test_accumulation(self):
        acc = TimeAccumulator()
        acc.update(RoundTimes(actual=1.0, maximum=2.0, minimum=0.5))
        acc.update(RoundTimes(actual=1.5, maximum=3.0, minimum=1.0))
        assert acc.actual_total == pytest.approx(2.5)
        assert acc.max_total == pytest.approx(5.0)
        assert acc.min_total == pytest.approx(1.5)
        assert acc.rounds == 2
        np.testing.assert_allclose(acc.actual_series, [1.0, 2.5])
