"""Tests for dispatch pricing: a client's link and speed to virtual seconds."""

import pytest

from repro.network.cost import DOWNLINK_FACTOR, LinkSpec, downlink_time, uplink_time
from repro.network.transport import Payload
from repro.simtime.profiles import pipeline_times

LINK = LinkSpec(bandwidth_bps=1e6, latency_s=0.1)


def times(payload: Payload, link: LinkSpec = LINK, s_per_sample: float = 0.01, **kw):
    args = dict(volume_bits=1e6, num_samples=100, epochs=1, include_downlink=True)
    return pipeline_times(link, s_per_sample, payload=payload, **{**args, **kw})


class TestPipelineTimes:
    def test_train_is_linear_in_samples_and_epochs(self):
        payload = Payload.dense(1e6)
        assert times(payload, num_samples=100, epochs=2)[1] == 0.01 * 100 * 2  # bitwise
        assert times(payload, s_per_sample=0.02, num_samples=50, epochs=3)[1] == 0.02 * 50 * 3
        assert times(payload, num_samples=0)[1] == 0.0

    def test_upload_is_eq4_on_the_payload_bits(self):
        for payload in (Payload.dense(1e6), Payload(5_000 * 64.0, "sparse"), Payload(12_345.0, "quantized")):
            _, _, up = times(payload)
            assert up == uplink_time(LINK, payload.bits)  # bitwise

    def test_prices_the_given_link(self):
        """A drifted link reaches pricing as the link handed in."""
        fast = LinkSpec(bandwidth_bps=4e6, latency_s=0.1)
        payload = Payload.dense(1e6)
        assert times(payload, fast)[2] < times(payload)[2]
        assert times(payload, fast)[0] < times(payload)[0]

    def test_download_uses_bandwidth_factor(self):
        down, _, up = times(Payload.dense(1e6))
        assert DOWNLINK_FACTOR == 10.0
        assert down < up
        assert down == downlink_time(LINK, 1e6, bandwidth_factor=DOWNLINK_FACTOR)
        assert down == pytest.approx(0.1 + 1e6 / 1e7)

    def test_stages_compose(self):
        down, train, up = times(Payload(5_000 * 64.0, "sparse"))
        assert down == pytest.approx(0.2)
        assert train == pytest.approx(1.0)
        assert up == pytest.approx(0.1 + Payload(5_000 * 64.0, "sparse").bits / 1e6)

    def test_downlink_gated(self):
        down, _, _ = times(Payload.dense(1e6), num_samples=10, include_downlink=False)
        assert down == 0.0
