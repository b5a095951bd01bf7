"""End-to-end transport contract: payload-accurate pricing, fair-ingress
contention, and the flow-accounting ledger across all four protocols.

The companion unit/property suite lives in tests/network/test_transport.py;
this file checks the *integration* invariants: exclusive runs price exactly
Eq. 4 on the emitted bits, fair runs are never faster than exclusive ones,
and the per-round ledgers add up to what the compressors actually emitted.
That contended runs are the same on every backend is the invariance
harness's check (``tests/test_invariance.py``).
"""

import functools
import math

import numpy as np
import pytest

from repro.compression.base import SparseUpdate
from repro.fl.simulation import Simulation
from repro.network.cost import uplink_time
from tests import test_invariance as invariance
from tests.test_invariance import run_sim

ALL_MODES = ["sync", "semisync", "async", "hier"]

#: How far an unbounded fair ingress may move a round's clock from exclusive
#: links, in ulp of the larger value. Measured worst over seeds 0–2: 1 on
#: ``sim_start``/``sim_end`` in sync, async and hier; 4 on semisync's and 3 on
#: async's ``times``.
UNBOUNDED_FAIR_ULPS = 8

#: The transport tests' runs: uniform Top-K at CR 0.2.
small_config = functools.partial(invariance.small_config, algorithm="topk", compression_ratio=0.2)


def run_sim_keeping_updates(config, monkeypatch):
    """``run_sim`` plus the updates the last round's tasks emitted, collected
    through a wrapped ``_run_tasks`` (a round folds its uploads and keeps none)."""
    batches = []
    live = Simulation._run_tasks

    def run_tasks(self, tasks, global_params, spec):
        batches.append([])
        for result in live(self, tasks, global_params, spec):
            batches[-1].append(result.update)
            yield result

    monkeypatch.setattr(Simulation, "_run_tasks", run_tasks)
    sim, history = run_sim(config)
    return sim, history, batches[-1]


class TestPayloadAccuratePricing:
    def test_dense_uploads_price_eq4_exactly(self):
        """No compressor → upload span = L + V/B, bitwise (the seed
        arithmetic the refactor must preserve)."""
        sim, h = run_sim(small_config(algorithm="fedavg", compression_ratio=1.0, rounds=2))
        for s in sim.spans:
            if s.kind != "upload":
                continue
            expected = uplink_time(sim.links[s.cid], sim.volume_bits)
            assert s.end - s.start == pytest.approx(expected, abs=0.0, rel=1e-15)

    def test_sparse_uploads_price_emitted_bits(self, monkeypatch):
        """Compressed uploads are priced from nnz × (index+value bits), not
        the planned-ratio × factor-2 approximation."""
        sim, h, updates = run_sim_keeping_updates(small_config(rounds=2), monkeypatch)
        rec = h.records[-1]
        spans = {
            s.cid: s.end - s.start
            for s in sim.spans
            if s.tag == rec.round_index and s.kind == "upload"
        }
        for cid, u in zip(rec.selected, updates):
            assert isinstance(u, SparseUpdate)
            link = sim.links[cid]
            assert spans[cid] == pytest.approx(
                link.latency_s + u.bits / link.bandwidth_bps
            )

    def test_async_predicted_bits_match_emitted_bits(self):
        """Deferred-training dispatches are priced from Top-K's declared
        wire size — which must equal what the compressor then emits."""
        sim, h = run_sim(small_config(mode="async", rounds=3))
        for r in h.records:
            assert r.comm is not None
            emitted = {cid: 0.0 for cid in r.selected}
            # Realized density × dense size × 64 bits per retained entry.
            for cid, ratio in zip(r.selected, r.ratios):
                emitted[cid] += round(ratio * sim.dense_size) * 64.0
            assert dict(r.comm.uplink) == pytest.approx(emitted)


class TestFairContention:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_fair_never_faster_than_exclusive(self, mode):
        cfg = small_config(mode=mode, rounds=3)
        _, none_h = run_sim(cfg)
        _, fair_h = run_sim(cfg.with_(contention="fair", server_ingress_mbps=0.5))
        assert fair_h.records[-1].sim_end >= none_h.records[-1].sim_end - 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_generous_ingress_changes_nothing_learning_wise(self, mode, seed):
        """At 1e9 Mbps no flow is ever capped by its share, so a fair run is
        the exclusive run: the same learning trajectory and model, bit for
        bit. Only the clock differs: the water-fill advances a flow's
        remaining bits through its events instead of pricing ``L + V/B`` in
        one expression, which moves the ends (and, in the event-driven modes,
        the recorded communication times) by a few ulp."""
        cfg = small_config(mode=mode, rounds=3, include_downlink=True, seed=seed)
        none_sim, none_h = run_sim(cfg)
        fair_sim, fair_h = run_sim(cfg.with_(contention="fair", server_ingress_mbps=1e9))
        assert len(none_h) == len(fair_h) == 3
        for rn, rf in zip(none_h.records, fair_h.records):
            for field in ("selected", "weights", "ratios", "train_loss", "test_accuracy", "comm"):
                assert getattr(rn, field) == getattr(rf, field), field
            clock = {"sim_start": (rn.sim_start, rf.sim_start), "sim_end": (rn.sim_end, rf.sim_end)}
            for field in ("actual", "maximum", "minimum", "downlink"):
                clock[field] = (getattr(rn.times, field), getattr(rf.times, field))
            for field, (a, b) in clock.items():
                assert abs(a - b) <= UNBOUNDED_FAIR_ULPS * math.ulp(max(abs(a), abs(b))), field
        assert np.array_equal(none_sim.global_params, fair_sim.global_params)

    def test_tight_ingress_stretches_rounds(self):
        cfg = small_config(rounds=3)
        _, none_h = run_sim(cfg)
        _, fair_h = run_sim(cfg.with_(contention="fair", server_ingress_mbps=0.2))
        assert fair_h.records[-1].sim_end > none_h.records[-1].sim_end

    def test_config_requires_ingress_capacity(self):
        with pytest.raises(ValueError, match="server_ingress_mbps"):
            small_config(contention="fair")
        with pytest.raises(ValueError, match="contention"):
            small_config(contention="tdma")

    def test_semisync_drop_frees_ingress(self):
        """late_policy='drop' cancels the straggler's flow; the run still
        terminates and never records a stale contribution."""
        cfg = small_config(
            mode="semisync", rounds=5, deadline_quantile=0.3,
            compute_heterogeneity=1.5, late_policy="drop",
            contention="fair", server_ingress_mbps=0.5,
        )
        _, h = run_sim(cfg)
        assert len(h) == 5
        assert all((r.mean_staleness or 0) == 0 for r in h.records)

    def test_hier_degenerate_fair_matches_flat_fair(self):
        """The degenerate-equivalence contract survives contention: one
        free-backhaul edge over everything == the flat sync protocol."""
        cfg = small_config(contention="fair", server_ingress_mbps=0.5)
        flat_sim, flat_h = run_sim(cfg)
        hier_sim, hier_h = run_sim(cfg.with_(mode="hier"))
        for rf, rh in zip(flat_h.records, hier_h.records):
            assert rf.selected == rh.selected
            assert rf.sim_start == rh.sim_start
            assert rf.sim_end == rh.sim_end
            assert rf.comm == rh.comm
        assert flat_sim.spans.spans == hier_sim.spans.spans


class TestFlowLedger:
    def test_sync_ledger_matches_emitted_updates(self, monkeypatch):
        sim, h, updates = run_sim_keeping_updates(small_config(rounds=2), monkeypatch)
        rec = h.records[-1]
        emitted = {}
        for cid, u in zip(rec.selected, updates):
            emitted[cid] = emitted.get(cid, 0.0) + float(u.bits)
        assert dict(rec.comm.uplink) == emitted
        assert rec.comm.downlink == ()  # downlink accounting off
        assert rec.comm.backhaul == ()  # flat protocol

    def test_downlink_entries_appear_when_priced(self):
        _, h = run_sim(small_config(rounds=2, include_downlink=True))
        for r in h.records:
            assert r.comm.downlink_bits == len(r.selected) * h.records[0].comm.downlink[0][1]

    def test_hier_ledger_carries_backhaul_tier(self):
        cfg = small_config(
            mode="hier", num_edges=3, backhaul_bandwidth_mbps=50.0, rounds=2
        )
        sim, h = run_sim(cfg)
        for r in h.records:
            assert len(r.comm.backhaul) == 3  # one entry per billed edge
            assert all(bits == sim.volume_bits for _, bits in r.comm.backhaul)

    def test_free_backhaul_is_not_billed(self):
        _, h = run_sim(small_config(mode="hier", num_edges=2, rounds=1))
        assert h.records[0].comm.backhaul == ()

    def test_history_totals_and_per_client(self):
        _, h = run_sim(small_config(rounds=3))
        totals = h.comm_totals()
        assert totals["rounds"] == 3
        assert totals["total_bytes"] == pytest.approx(
            totals["uplink_bytes"] + totals["downlink_bytes"] + totals["backhaul_bytes"]
        )
        per_client = h.comm_per_client()
        assert sum(per_client.values()) == pytest.approx(totals["uplink_bytes"])

    def test_ledger_roundtrips_through_json(self):
        from repro.io.history_io import history_from_dict, history_to_dict

        _, h = run_sim(
            small_config(mode="hier", num_edges=2, backhaul_bandwidth_mbps=50.0, rounds=2)
        )
        back = history_from_dict(history_to_dict(h))
        for ra, rb in zip(h.records, back.records):
            assert ra.comm == rb.comm

    def test_legacy_history_loads_without_ledger(self):
        from repro.io.history_io import history_from_dict, history_to_dict

        _, h = run_sim(small_config(rounds=1))
        data = history_to_dict(h)
        for rec in data["records"]:
            del rec["comm"]  # pre-transport file
        back = history_from_dict(data)
        assert back.records[0].comm is None
        assert back.comm_totals()["rounds"] == 0
