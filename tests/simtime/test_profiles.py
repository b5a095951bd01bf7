"""Tests for device timing profiles and dispatch pricing."""

import pytest

from repro.network.cost import DOWNLINK_FACTOR, LinkSpec, downlink_time, uplink_time
from repro.network.transport import Payload
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


def profile(link: LinkSpec = LINK) -> DeviceProfile:
    return DeviceProfile(cid=0, compute=ComputeSpec(0.01), link=link)


def times(dev: DeviceProfile, payload: Payload, **kw) -> tuple[float, float, float]:
    args = dict(volume_bits=1e6, num_samples=100, epochs=1, include_downlink=True)
    return pipeline_times(dev, payload=payload, **{**args, **kw})


class TestPipelineTimes:
    def test_upload_is_eq4_on_the_payload_bits(self):
        for payload in (Payload.dense(1e6), Payload(5_000 * 64.0, "sparse"), Payload(12_345.0, "quantized")):
            _, _, up = times(profile(), payload)
            assert up == uplink_time(LINK, payload.bits)  # bitwise

    def test_prices_the_profile_link(self):
        """A drifted link reaches pricing as the profile's own link."""
        fast = LinkSpec(bandwidth_bps=4e6, latency_s=0.1)
        payload = Payload.dense(1e6)
        assert times(profile(fast), payload)[2] < times(profile(), payload)[2]
        assert times(profile(fast), payload)[0] < times(profile(), payload)[0]

    def test_download_uses_bandwidth_factor(self):
        down, _, up = times(profile(), Payload.dense(1e6))
        assert DOWNLINK_FACTOR == 10.0
        assert down < up
        assert down == downlink_time(LINK, 1e6, bandwidth_factor=DOWNLINK_FACTOR)
        assert down == pytest.approx(0.1 + 1e6 / 1e7)

    def test_stages_compose(self):
        down, train, up = times(profile(), Payload(5_000 * 64.0, "sparse"))
        assert down == pytest.approx(0.2)
        assert train == pytest.approx(1.0)
        assert up == pytest.approx(0.1 + Payload(5_000 * 64.0, "sparse").bits / 1e6)

    def test_downlink_gated(self):
        down, _, _ = times(profile(), Payload.dense(1e6), num_samples=10, include_downlink=False)
        assert down == 0.0
