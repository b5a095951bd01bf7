"""Tests for the multi-tier topology model."""

import pytest

from repro.hier.topology import (
    TierTopology,
    assign_edges,
    sample_backhaul_links,
)
from repro.network.cost import LinkSpec
from repro.network.links import PAPER_LINK_MODEL, sample_links


def links(n, seed=0):
    return sample_links(n, PAPER_LINK_MODEL, seed=seed)


class TestAssignEdges:
    @pytest.mark.parametrize("mode", ["contiguous", "random", "bandwidth"])
    @pytest.mark.parametrize("num_edges", [1, 2, 3, 10])
    def test_partition_invariants(self, mode, num_edges):
        n = 10
        groups = assign_edges(n, num_edges, mode, links=links(n), seed=7)
        assert len(groups) == num_edges
        flat = sorted(c for g in groups for c in g)
        assert flat == list(range(n))  # exact partition, no dupes/gaps
        for g in groups:
            assert g  # non-empty
            assert list(g) == sorted(g)  # id-sorted within a group

    def test_contiguous_is_consecutive_chunks(self):
        groups = assign_edges(6, 3, "contiguous")
        assert groups == ((0, 1), (2, 3), (4, 5))

    def test_random_is_seeded(self):
        a = assign_edges(12, 3, "random", seed=5)
        b = assign_edges(12, 3, "random", seed=5)
        c = assign_edges(12, 3, "random", seed=6)
        assert a == b
        assert a != c

    def test_bandwidth_groups_are_bandwidth_ordered(self):
        ls = links(12, seed=3)
        groups = assign_edges(12, 4, "bandwidth", links=ls)
        # Every client in group e is no faster than any client in group e+1.
        for e in range(3):
            assert max(ls[c].bandwidth_bps for c in groups[e]) <= min(
                ls[c].bandwidth_bps for c in groups[e + 1]
            )

    def test_errors(self):
        with pytest.raises(ValueError, match="num_edges"):
            assign_edges(4, 5, "contiguous")
        with pytest.raises(ValueError, match="num_edges"):
            assign_edges(4, 0, "contiguous")
        with pytest.raises(ValueError, match="unknown edge assignment"):
            assign_edges(4, 2, "geo")
        with pytest.raises(ValueError, match="links"):
            assign_edges(4, 2, "bandwidth")


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


class TestTierTopology:
    def build(self, n=6, num_edges=2, backhaul_mbps=50.0):
        ls = links(n)
        return TierTopology(
            groups=assign_edges(n, num_edges, "contiguous"),
            client_links=tuple(ls),
            backhaul_links=sample_backhaul_links(
                num_edges, bandwidth_mbps=backhaul_mbps, latency_s=0.02, seed=1
            ),
        )

    def test_shape_accessors(self):
        topo = self.build()
        assert topo.num_edges == 2
        assert topo.num_clients == 6
        assert topo.edge_of(0) == 0 and topo.edge_of(5) == 1

    def test_backhaul_times(self):
        topo = self.build(backhaul_mbps=50.0)
        v = 1e6
        t = topo.backhaul_uplink_time(0, v)
        link = topo.backhaul_links[0]
        assert t == pytest.approx(link.latency_s + v / link.bandwidth_bps)
        free = self.build(backhaul_mbps=None)
        assert free.backhaul_uplink_time(0, v) == 0.0

    def test_validation(self):
        ls = tuple(links(4))
        with pytest.raises(ValueError, match="partition"):
            TierTopology(groups=((0, 1), (1, 2, 3)), client_links=ls, backhaul_links=(None, None))
        with pytest.raises(ValueError, match="backhaul"):
            TierTopology(groups=((0, 1), (2, 3)), client_links=ls, backhaul_links=(None,))
        with pytest.raises(ValueError, match="at least one client"):
            TierTopology(groups=((0, 1, 2, 3), ()), client_links=ls, backhaul_links=(None, None))
