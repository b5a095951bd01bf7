"""Tests for the multi-tier topology model."""

import numpy as np
import pytest

from repro.hier.topology import assign_edges, sample_backhaul_links
from repro.network.cost import LinkSpec
from repro.network.links import PAPER_LINK_MODEL, sample_links


def bandwidths(n, seed=0):
    return np.array([link.bandwidth_bps for link in sample_links(n, PAPER_LINK_MODEL, seed=seed)])


class TestAssignEdges:
    @pytest.mark.parametrize("mode", ["contiguous", "random", "bandwidth"])
    @pytest.mark.parametrize("num_edges", [1, 2, 3, 10])
    def test_partition_invariants(self, mode, num_edges):
        n = 10
        groups = assign_edges(n, num_edges, mode, bandwidth_bps=bandwidths(n), seed=7)
        assert len(groups) == num_edges
        for g in groups:
            assert isinstance(g, np.ndarray) and g.dtype == np.int64
            assert g.size  # non-empty
            assert np.all(np.diff(g) > 0)  # id-sorted within a group
        flat = np.sort(np.concatenate(groups))
        assert flat.tolist() == list(range(n))  # exact partition, no dupes/gaps

    def test_contiguous_is_consecutive_chunks(self):
        groups = assign_edges(6, 3, "contiguous")
        assert [g.tolist() for g in groups] == [[0, 1], [2, 3], [4, 5]]

    def test_random_is_seeded(self):
        a, b, c = (
            [g.tolist() for g in assign_edges(12, 3, "random", seed=seed)] for seed in (5, 5, 6)
        )
        assert a == b
        assert a != c

    def test_bandwidth_groups_are_bandwidth_ordered(self):
        bw = bandwidths(12, seed=3)
        groups = assign_edges(12, 4, "bandwidth", bandwidth_bps=bw)
        # Every client in group e is no faster than any client in group e+1.
        for e in range(3):
            assert bw[groups[e]].max() <= bw[groups[e + 1]].min()

    def test_bandwidth_ties_keep_id_order(self):
        groups = assign_edges(4, 2, "bandwidth", bandwidth_bps=np.array([5.0, 1.0, 5.0, 1.0]))
        assert [g.tolist() for g in groups] == [[1, 3], [0, 2]]

    def test_errors(self):
        with pytest.raises(ValueError, match="num_edges"):
            assign_edges(4, 5, "contiguous")
        with pytest.raises(ValueError, match="num_edges"):
            assign_edges(4, 0, "contiguous")
        with pytest.raises(ValueError, match="unknown edge assignment"):
            assign_edges(4, 2, "geo")
        with pytest.raises(ValueError, match="bandwidth_bps"):
            assign_edges(4, 2, "bandwidth")
        with pytest.raises(ValueError, match="3 bandwidths for 4 clients"):
            assign_edges(4, 2, "bandwidth", bandwidth_bps=np.ones(3))


class TestBackhaulLinks:
    def test_none_bandwidth_is_free_tier(self):
        assert sample_backhaul_links(3, bandwidth_mbps=None) == (None, None, None)

    def test_zero_heterogeneity_is_uniform(self):
        bh = sample_backhaul_links(
            4, bandwidth_mbps=100.0, latency_s=0.01, heterogeneity=0.0, seed=1
        )
        assert all(link == LinkSpec(bandwidth_bps=100e6, latency_s=0.01) for link in bh)

    def test_heterogeneity_spreads_draws_deterministically(self):
        a = sample_backhaul_links(8, bandwidth_mbps=100.0, latency_s=0.01, heterogeneity=0.5, seed=2)
        b = sample_backhaul_links(8, bandwidth_mbps=100.0, latency_s=0.01, heterogeneity=0.5, seed=2)
        assert a == b
        assert len({link.bandwidth_bps for link in a}) > 1
