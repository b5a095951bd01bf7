"""Hierarchical protocol tests: degenerate equivalence, two-level semantics
and per-tier timings. Backend invariance is the invariance harness's check
(``tests/test_invariance.py``)."""

import numpy as np
import pytest

from repro.fl.simulation import Simulation
from repro.hier.simulation import HierSimulation
from repro.io.history_io import history_from_dict, history_to_dict
from repro.network.cost import LinkSpec, uplink_time
from repro.simtime import make_simulation
from tests.test_invariance import run_sim, small_config

#: The record fields a flat run shares with a hierarchical one:
#: train/compress_seconds are wall clock, and edge_breakdown exists only on
#: hierarchical records.
FLAT_FIELDS = (
    "round_index",
    "selected",
    "train_loss",
    "test_accuracy",
    "times",
    "ratios",
    "weights",
    "singleton_fraction",
    "sim_start",
    "sim_end",
    "mean_staleness",
)


def assert_records_identical(a, b, fields=FLAT_FIELDS):
    assert len(a) == len(b)
    for ra, rb in zip(a.records, b.records):
        for f in fields:
            assert getattr(ra, f) == getattr(rb, f), f


class TestFactoryAndConfig:
    def test_mode_selects_class(self):
        assert isinstance(make_simulation(small_config(mode="hier")), HierSimulation)

    def test_config_rejects_bad_hier_knobs(self):
        with pytest.raises(ValueError, match="num_edges"):
            small_config(num_edges=7)  # > num_clients
        with pytest.raises(ValueError, match="num_edges"):
            small_config(num_edges=0)
        with pytest.raises(ValueError, match="edge_rounds"):
            small_config(edge_rounds=0)
        with pytest.raises(ValueError, match="edge_assignment"):
            small_config(edge_assignment="geo")
        with pytest.raises(ValueError, match="edge_sync"):
            small_config(edge_sync="async")
        with pytest.raises(ValueError, match="backhaul_bandwidth_mbps"):
            small_config(backhaul_bandwidth_mbps=0.0)


class TestDegenerateEquivalence:
    """num_edges=1 + free backhaul + one sub-round ≡ the flat protocol: bit
    for bit, records, spans and parameters, is the invariance harness's
    ``hier-1-edge`` identity; these pin what the hierarchy adds."""

    def test_degenerate_breakdown_is_single_free_edge(self):
        _, h = run_sim(small_config(mode="hier"))
        for r in h.records:
            assert len(r.edge_breakdown) == 1
            (edge,) = r.edge_breakdown
            assert edge.backhaul_s == 0.0
            assert edge.end == r.sim_end

    def test_costly_backhaul_breaks_equivalence_only_in_time(self):
        cfg = small_config()
        with Simulation(cfg) as flat_sim:
            flat = flat_sim.run()
        hier_sim, hier = run_sim(
            cfg.with_(mode="hier", backhaul_bandwidth_mbps=10.0, backhaul_latency_s=0.05)
        )
        # The learning outcome is untouched (one edge aggregates everything
        # exactly as the flat server would)…
        assert_records_identical(
            flat, hier, fields=("selected", "train_loss", "test_accuracy", "weights")
        )
        # …but every round now pays the edge↔cloud transfer.
        for rf, rh in zip(flat.records, hier.records):
            assert rh.sim_end - rh.sim_start > rf.sim_end - rf.sim_start
            assert rh.edge_breakdown[0].backhaul_s > 0.0
            # The upload is Eq. 4 over the edge's own backhaul link.
            assert rh.edge_breakdown[0].backhaul_s == uplink_time(
                hier_sim.backhaul_links[0], hier_sim.volume_bits
            )


class TestFleetScale:
    def test_a_million_client_hierarchy_builds_no_per_client_link(self, monkeypatch):
        """Over 10⁶ clients the hierarchy is index arrays: building it makes
        at most one ``LinkSpec`` per edge (none for a free backhaul), and the
        clients' last-mile links stay in the population's columns."""
        made = []
        validate = LinkSpec.__post_init__
        monkeypatch.setattr(LinkSpec, "__post_init__", lambda link: made.append(validate(link)))
        cfg = small_config(
            mode="hier", num_edges=4, num_clients=10**6, participation=0.00025, virtual_shards=True
        )
        with make_simulation(cfg) as sim:
            assert len(made) <= cfg.num_edges
            assert len(sim.groups) == cfg.num_edges
            for group in sim.groups:
                assert isinstance(group, np.ndarray) and group.dtype == np.int64


class TestTwoLevelSemantics:
    def test_breakdown_shape_and_tiering(self):
        cfg = small_config(
            mode="hier", num_edges=3, edge_rounds=2,
            backhaul_bandwidth_mbps=50.0, backhaul_latency_s=0.01,
        )
        sim, h = run_sim(cfg)
        for r in h.records:
            assert len(r.edge_breakdown) == 3
            for e, edge in enumerate(r.edge_breakdown):
                assert edge.edge == e
                assert len(edge.sub_spans) == 2  # K₁ sub-rounds per edge
                group = set(sim.groups[e].tolist())
                assert set(edge.selected) <= group  # edges sample their own tier
                assert edge.start == r.sim_start
                # end = start + Σ sub-round spans + backhaul transfers
                assert edge.end == pytest.approx(
                    edge.start + sum(edge.sub_spans) + edge.backhaul_s
                )
            # The cloud waits for its slowest edge.
            assert r.sim_end == max(e.end for e in r.edge_breakdown)

    def test_bcrs_benchmarks_per_edge_group(self):
        """Each edge schedules against its own slowest member, so the per-
        round actual time is bounded by the slowest edge, not by a global
        benchmark applied to everyone."""
        cfg = small_config(num_clients=8, algorithm="bcrs")
        flat_sim, flat = run_sim(cfg)
        hier_sim, hier = run_sim(
            cfg.with_(mode="hier", num_edges=4, edge_assignment="bandwidth")
        )
        # Bandwidth-homogeneous groups: at least one round where the fast
        # groups finish their (local) benchmark before the global one.
        assert any(
            rh.times.actual <= rf.times.actual
            for rf, rh in zip(flat.records, hier.records)
        )

    def test_edge_models_diverge_then_cloud_averages(self):
        """With E>1 the per-edge aggregations see different client subsets,
        so the trajectory must differ from the flat run."""
        cfg = small_config()
        _, flat = run_sim(cfg)
        _, hier = run_sim(cfg.with_(mode="hier", num_edges=3))
        assert [r.train_loss for r in flat.records] != [r.train_loss for r in hier.records]

    def test_edge_rounds_multiply_local_work(self):
        _, h1 = run_sim(small_config(mode="hier", num_edges=2, edge_rounds=1))
        _, h3 = run_sim(small_config(mode="hier", num_edges=2, edge_rounds=3))
        for r1, r3 in zip(h1.records, h3.records):
            assert len(r3.selected) == 3 * len(r1.selected)
            assert r3.sim_end >= r1.sim_end

    def test_one_client_per_edge_runs(self):
        cfg = small_config(mode="hier", num_edges=6)  # degenerate groups of 1
        _, h = run_sim(cfg)
        assert len(h) == 3
        for r in h.records:
            assert len(r.selected) == 6  # every edge samples its lone client

    @pytest.mark.parametrize(
        "shape",
        [
            dict(num_clients=10, num_edges=3, participation=0.5),
            dict(num_clients=10**6, num_edges=4, participation=0.00025, virtual_shards=True),
        ],
        ids=["10-clients-3-edges", "1M-clients-4-edges"],
    )
    def test_a_sub_round_trains_clients_per_round(self, shape):
        """The edges split clients_per_round by group size (largest
        remainder), so shares that do not divide exactly still sum to it:
        rounding each edge's share on its own trained 6 of 5 and 248 of 250."""
        cfg = small_config(mode="hier", rounds=1, **shape)
        _, h = run_sim(cfg)
        assert len(h.records[0].selected) == cfg.clients_per_round

    def test_semisync_edge_missing_everyone_keeps_its_fastest_planned_member(self):
        """A deadline no member meets keeps one member per sub-round, at
        weight 1, and never one the plan zero-weighted (deadline_topk's
        stragglers) — read from the same config in lock-step, whose recorded
        weights are the plan's: selections, plans and prices do not depend
        on the model."""
        base = dict(
            mode="hier", algorithm="deadline_topk", num_edges=2, num_clients=12,
            edge_rounds=2, compute_heterogeneity=1.5, deadline_quantile=0.5, deadline_s=1e-9,
        )
        sim, semi = run_sim(small_config(**base, edge_sync="semisync"))
        _, sync = run_sim(small_config(**base, edge_sync="sync"))
        bounds = np.cumsum([0] + sim.shares * base["edge_rounds"])
        for rs, rd in zip(sync.records, semi.records):
            assert rs.selected == rd.selected
            for lo, hi in zip(bounds, bounds[1:]):
                kept = [pos for pos in range(lo, hi) if rd.weights[pos] > 0]
                assert [rd.weights[pos] for pos in kept] == [1.0]
                assert rs.weights[kept[0]] > 0

    def test_semisync_edges_drop_stragglers(self):
        base = dict(
            mode="hier", num_edges=2, num_clients=8, compute_heterogeneity=1.5,
            deadline_quantile=0.5, rounds=4,
        )
        _, sync_h = run_sim(small_config(**base, edge_sync="sync"))
        _, semi_h = run_sim(small_config(**base, edge_sync="semisync"))
        # Dropped stragglers show up as zero aggregation weights…
        assert any(0.0 in r.weights for r in semi_h.records)
        assert all(0.0 not in r.weights for r in sync_h.records)
        # …and the deadline cut never waits longer than the sync barrier.
        for rs, rd in zip(sync_h.records, semi_h.records):
            assert rd.sim_end <= rs.sim_end + 1e-9

    def test_semisync_edges_honor_fixed_deadline(self):
        """deadline_s overrides the per-sub-round quantile, exactly as it
        overrides the per-round quantile in the flat semisync mode."""
        base = dict(
            mode="hier", num_edges=2, num_clients=8, compute_heterogeneity=1.5,
            edge_sync="semisync", rounds=3,
        )
        _, tight = run_sim(small_config(**base, deadline_s=0.05))
        _, loose = run_sim(small_config(**base, deadline_s=1e6))
        # A generous fixed deadline drops nobody; a tight one must.
        assert all(0.0 not in r.weights for r in loose.records)
        assert any(0.0 in r.weights for r in tight.records)
        # A sub-round span is never shorter than the deadline it waited for,
        # and with everything dropped-but-one it extends to that survivor.
        for r in tight.records:
            for edge in r.edge_breakdown:
                assert all(s >= 0.05 - 1e-9 for s in edge.sub_spans)

    def test_weights_normalized_per_aggregation(self):
        # topk uses FedAvg coefficients (sum 1 per aggregation); BCRS's
        # Eq. 6 coefficients are intentionally unnormalized, as in the flat
        # protocol.
        _, h = run_sim(
            small_config(mode="hier", num_edges=2, edge_rounds=2, algorithm="topk")
        )
        for r in h.records:
            # 2 edges × 2 sub-rounds: four unit-normalized aggregations.
            assert sum(r.weights) == pytest.approx(4.0)

    def test_history_io_roundtrips_breakdown(self):
        _, h = run_sim(
            small_config(mode="hier", num_edges=2, backhaul_bandwidth_mbps=50.0)
        )
        back = history_from_dict(history_to_dict(h))
        for ra, rb in zip(h.records, back.records):
            assert ra.edge_breakdown == rb.edge_breakdown

    def test_checkpoint_resume_continues_clock(self, tmp_path):
        from repro.io.checkpoint import load_checkpoint, save_checkpoint

        cfg = small_config(mode="hier", num_edges=2, backhaul_bandwidth_mbps=50.0)
        with make_simulation(cfg) as sim:
            sim.run()
            end = sim.sim_clock
            save_checkpoint(sim, tmp_path / "ckpt.npz")
        fresh = make_simulation(cfg)
        load_checkpoint(fresh, tmp_path / "ckpt.npz")
        rec = fresh.run_round()
        assert rec.sim_start == pytest.approx(end)
        fresh.close()


class TestRunnerReporting:
    def test_edge_width_grid_and_summary(self):
        """An edge-width sweep is a grid over num_edges under mode=hier."""
        from repro.experiments import run_grid, summarize_sweep

        base = small_config(mode="hier", rounds=2, backhaul_bandwidth_mbps=100.0)
        report = run_grid(base, {"num_edges": [1, 3]})
        results = report.by_axis("num_edges")
        assert sorted(results) == [1, 3]
        assert all(r.edge_breakdown for h in results.values() for r in h.records)
        assert all(row["backhaul"] > 0 for row in report.rows())
        text = summarize_sweep(report, target=0.05)
        assert "num_edges=1" in text and "num_edges=3" in text
        assert "backhaul/rnd" in text and "t_to_target" in text

