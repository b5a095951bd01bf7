"""Tests for device timing profiles and dispatch pricing."""

import pytest

from repro.network.cost import DOWNLINK_FACTOR, LinkSpec, sparse_uplink_time, uplink_time
from repro.simtime.profiles import ComputeSpec, DeviceProfile, pipeline_times

LINK = LinkSpec(bandwidth_bps=1e6, latency_s=0.1)


class TestComputeSpec:
    def test_linear_in_samples_and_epochs(self):
        spec = ComputeSpec(s_per_sample=0.01, overhead_s=0.5)
        assert spec.train_time(100, 2) == pytest.approx(0.5 + 0.01 * 200)

    def test_zero_work_costs_overhead(self):
        assert ComputeSpec(0.01, overhead_s=0.3).train_time(0, 1) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComputeSpec(s_per_sample=0.0)
        with pytest.raises(ValueError):
            ComputeSpec(0.01).train_time(-1, 1)


class TestDeviceProfile:
    def test_upload_dense_and_sparse(self):
        dev = DeviceProfile(cid=0, compute=ComputeSpec(0.01), link=LINK)
        assert dev.upload_time(1e6, None) == pytest.approx(uplink_time(LINK, 1e6))
        assert dev.upload_time(1e6, 0.1) == pytest.approx(sparse_uplink_time(LINK, 1e6, 0.1))

    def test_link_override_prices_drifted_link(self):
        dev = DeviceProfile(cid=0, compute=ComputeSpec(0.01), link=LINK)
        fast = LinkSpec(bandwidth_bps=4e6, latency_s=0.1)
        assert dev.upload_time(1e6, None, link=fast) < dev.upload_time(1e6, None)

    def test_download_uses_bandwidth_factor(self):
        dev = DeviceProfile(cid=0, compute=ComputeSpec(0.01), link=LINK)
        down = dev.download_time(1e6)
        assert DOWNLINK_FACTOR == 10.0
        assert down < dev.upload_time(1e6, None)
        assert down == pytest.approx(0.1 + 1e6 / 1e7)


class TestPipelineTimes:
    def test_stages_compose(self):
        dev = DeviceProfile(cid=0, compute=ComputeSpec(0.01), link=LINK)
        down, train, up = pipeline_times(
            dev, volume_bits=1e6, ratio=0.1, num_samples=100, epochs=1,
            include_downlink=True,
        )
        assert down == pytest.approx(dev.download_time(1e6))
        assert train == pytest.approx(1.0)
        assert up == pytest.approx(sparse_uplink_time(LINK, 1e6, 0.1))

    def test_downlink_gated(self):
        dev = DeviceProfile(cid=0, compute=ComputeSpec(0.01), link=LINK)
        down, _, _ = pipeline_times(
            dev, volume_bits=1e6, ratio=None, num_samples=10, epochs=1,
            include_downlink=False,
        )
        assert down == 0.0
