"""Tests for Algorithm 2 — BCRS compression-ratio scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bcrs import schedule_ratios
from repro.network.cost import LinkSpec, sparse_uplink_time

V = 32e6  # 1M params × 32 bits


@pytest.fixture
def links():
    # B1 > B2 > B3 as in Fig. 1/2.
    return [
        LinkSpec(bandwidth_bps=2.0e6, latency_s=0.05),
        LinkSpec(bandwidth_bps=1.0e6, latency_s=0.10),
        LinkSpec(bandwidth_bps=0.5e6, latency_s=0.15),
    ]


class TestBenchmark:
    def test_slowest_client_is_benchmark(self, links):
        sched = schedule_ratios(links, V, 0.01)
        assert sched.benchmark_index == 2
        assert sched.t_bench == pytest.approx(
            sparse_uplink_time(links[2], V, 0.01)
        )

    def test_slowest_keeps_default_cr(self, links):
        sched = schedule_ratios(links, V, 0.01)
        assert sched.ratios[2] == pytest.approx(0.01)

    def test_median_benchmark_rule(self, links):
        sched = schedule_ratios(links, V, 0.01, benchmark="median")
        assert sched.benchmark_index == 1
        # Clients slower than the median benchmark are clipped at CR*.
        assert sched.ratios[2] == pytest.approx(0.01)

    def test_unknown_benchmark_rejected(self, links):
        with pytest.raises(ValueError):
            schedule_ratios(links, V, 0.01, benchmark="p99")


class TestEqualizedTimes:
    def test_unclipped_times_equal_bench(self, links):
        """Alg. 2's purpose: every unclipped client finishes exactly at T_bench."""
        sched = schedule_ratios(links, V, 0.01)
        for i in range(3):
            if 0.01 < sched.ratios[i] < 1.0:
                assert sched.scheduled_times[i] == pytest.approx(sched.t_bench, rel=1e-9)

    def test_no_client_exceeds_bench(self, links):
        sched = schedule_ratios(links, V, 0.01)
        assert np.all(sched.scheduled_times <= sched.t_bench * (1 + 1e-9))

    def test_faster_clients_higher_ratio(self, links):
        """Fig. 2: B1 > B2 > B3 implies CR1 >= CR2 >= CR3."""
        sched = schedule_ratios(links, V, 0.01)
        assert sched.ratios[0] >= sched.ratios[1] >= sched.ratios[2]

    def test_cr1_formula_exact(self, links):
        """CR_i = (T_bench − L_i)/(2V) · B_i, line 13."""
        sched = schedule_ratios(links, V, 0.01)
        expected = (sched.t_bench - 0.05) / (2 * V) * 2.0e6
        assert sched.ratios[0] == pytest.approx(expected)


class TestClipping:
    def test_ratio_capped_at_one(self):
        # A wildly fast client would get CR > 1 without clipping.
        links = [LinkSpec(1e9, 0.01), LinkSpec(0.1e6, 0.2)]
        sched = schedule_ratios(links, V, 0.1)
        assert sched.ratios[0] == 1.0

    def test_custom_cr_max(self):
        links = [LinkSpec(1e9, 0.01), LinkSpec(0.1e6, 0.2)]
        sched = schedule_ratios(links, V, 0.1, cr_max=0.5)
        assert sched.ratios[0] == 0.5

    def test_default_above_cr_max_rejected(self, links):
        with pytest.raises(ValueError):
            schedule_ratios(links, V, 0.8, cr_max=0.5)

    def test_homogeneous_links_all_default(self):
        links = [LinkSpec(1e6, 0.1)] * 4
        sched = schedule_ratios(links, V, 0.05)
        np.testing.assert_allclose(sched.ratios, 0.05)

    def test_single_client(self):
        sched = schedule_ratios([LinkSpec(1e6, 0.1)], V, 0.01)
        assert sched.ratios[0] == pytest.approx(0.01)
        assert sched.saved_time() == pytest.approx(0.0)


class TestSavedTime:
    def test_saved_time_positive_when_heterogeneous(self, links):
        sched = schedule_ratios(links, V, 0.01)
        assert sched.saved_time() > 0

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            schedule_ratios([], V, 0.1)


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0.1e6, 10e6), st.floats(0.01, 0.3)),
            min_size=1,
            max_size=12,
        ),
        st.floats(0.005, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, raw_links, default_cr):
        links = [LinkSpec(b, lat) for b, lat in raw_links]
        sched = schedule_ratios(links, V, default_cr)
        # Ratios bounded.
        assert np.all(sched.ratios >= default_cr - 1e-12)
        assert np.all(sched.ratios <= 1.0 + 1e-12)
        # No scheduled time beyond the benchmark.
        assert np.all(sched.scheduled_times <= sched.t_bench + 1e-9)
        # Scheduled times never beat the latency floor.
        lats = np.array([link.latency_s for link in links])
        assert np.all(sched.scheduled_times >= lats - 1e-12)
