"""Tests for the Eq. 4 / Alg. 2 cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.cost import (
    SPARSE_VOLUME_FACTOR,
    LinkSpec,
    downlink_time,
    model_bits,
    sparse_uplink_time,
    uplink_time,
)


class TestLinkSpec:
    def test_valid(self):
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.1)
        assert link.bandwidth_bps == 1e6

    @pytest.mark.parametrize("bw,lat", [(0, 0.1), (-1, 0.1), (1e6, -0.1)])
    def test_invalid(self, bw, lat):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth_bps=bw, latency_s=lat)


class TestModelBits:
    def test_float32_default(self):
        assert model_bits(1000) == 32000.0

    def test_quantized(self):
        assert model_bits(1000, bits_per_value=8) == 8000.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            model_bits(-1)


class TestUplinkTime:
    def test_eq4_exact(self):
        # 1 Mbit over 1 Mbit/s plus 100 ms latency = 1.1 s.
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.1)
        assert uplink_time(link, 1e6) == pytest.approx(1.1)

    def test_latency_only_for_empty_message(self):
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.07)
        assert uplink_time(link, 0.0) == pytest.approx(0.07)

    @given(st.floats(1e3, 1e9), st.floats(0, 1), st.floats(1, 1e9))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_volume_and_bandwidth(self, bw, lat, vol):
        link = LinkSpec(bandwidth_bps=bw, latency_s=lat)
        assert uplink_time(link, vol) <= uplink_time(link, vol * 2)
        faster = LinkSpec(bandwidth_bps=bw * 2, latency_s=lat)
        assert uplink_time(faster, vol) <= uplink_time(link, vol)


class TestDownlinkTime:
    def test_symmetric_factor_one_equals_uplink(self):
        """At factor 1 the broadcast costs exactly the dense uplink (Eq. 4)."""
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.1)
        assert downlink_time(link, 1e6) == pytest.approx(uplink_time(link, 1e6))

    def test_asymmetric_bandwidth_scales_volume_term_only(self):
        """10× downlink bandwidth divides the V/B term; latency is unchanged."""
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.1)
        t = downlink_time(link, 1e6, bandwidth_factor=10.0)
        assert t == pytest.approx(0.1 + 1e6 / 1e7)

    def test_empty_broadcast_costs_latency(self):
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.07)
        assert downlink_time(link, 0.0, bandwidth_factor=10.0) == pytest.approx(0.07)

    def test_validation(self):
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.1)
        with pytest.raises(ValueError):
            downlink_time(link, -1.0)
        with pytest.raises(ValueError):
            downlink_time(link, 1e6, bandwidth_factor=0.0)

    @given(st.floats(1.0, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_more_downlink_bandwidth_never_slower(self, factor):
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.05)
        assert downlink_time(link, 1e7, bandwidth_factor=factor) <= downlink_time(link, 1e7)


class TestSparseUplinkTime:
    def test_alg2_line7_exact(self):
        """T = L + 2·V·CR/B with the paper's numbers."""
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.05)
        v = 32e6  # 1M params × 32 bits
        t = sparse_uplink_time(link, v, 0.01)
        assert t == pytest.approx(0.05 + 2 * 32e6 * 0.01 / 1e6)

    def test_factor_two_vs_dense(self):
        """At CR=1, sparse transfer costs twice the dense volume (index+value)."""
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.0)
        v = 1e6
        assert sparse_uplink_time(link, v, 1.0) == pytest.approx(
            SPARSE_VOLUME_FACTOR * uplink_time(link, v)
        )

    def test_cr_bounds(self):
        link = LinkSpec(bandwidth_bps=1e6, latency_s=0.0)
        with pytest.raises(ValueError):
            sparse_uplink_time(link, 1e6, 0.0)
        with pytest.raises(ValueError):
            sparse_uplink_time(link, 1e6, 1.5)

    @given(st.floats(0.001, 1.0), st.floats(0.001, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_cr(self, cr1, cr2):
        link = LinkSpec(bandwidth_bps=2e6, latency_s=0.05)
        lo, hi = sorted([cr1, cr2])
        assert sparse_uplink_time(link, 1e7, lo) <= sparse_uplink_time(link, 1e7, hi)

