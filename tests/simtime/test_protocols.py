"""Tests for the event-driven protocols' semantics.

That their seeded runs are the same on every backend is checked by the
invariance harness, ``tests/test_invariance.py``.
"""

import functools

import numpy as np
import pytest

from repro.exec import BACKENDS
from repro.fl.simulation import Simulation
from repro.simtime import make_simulation
from repro.simtime.protocols import AsyncSimulation, SemiSyncSimulation, _idle_ids
from tests import test_invariance as invariance
from tests.test_invariance import assert_same_trace, run_sim, trace

#: Every registered backend but the serial reference.
PARALLEL = [b for b in BACKENDS if b != "serial"]

#: The protocol tests' runs: uniform Top-K at CR 0.2 over four rounds.
small_config = functools.partial(
    invariance.small_config, algorithm="topk", compression_ratio=0.2, rounds=4
)


class TestFactory:
    def test_mode_selects_class(self):
        assert isinstance(make_simulation(small_config(mode="sync")), Simulation)
        assert isinstance(make_simulation(small_config(mode="semisync")), SemiSyncSimulation)
        assert isinstance(make_simulation(small_config(mode="async")), AsyncSimulation)

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            small_config(mode="warp")

    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="buffer_size"):
            small_config(buffer_size=0)
        with pytest.raises(ValueError, match="concurrency"):
            small_config(concurrency=99)
        with pytest.raises(ValueError, match="late_policy"):
            small_config(late_policy="retry")
        with pytest.raises(ValueError, match="deadline_s"):
            small_config(deadline_s=0.0)


class TestVirtualSpans:
    @pytest.mark.parametrize("mode", ["sync", "semisync", "async"])
    def test_records_carry_monotone_spans(self, mode):
        _, h = run_sim(small_config(mode=mode))
        assert len(h) == 4
        prev_end = 0.0
        for r in h.records:
            assert r.sim_start is not None and r.sim_end is not None
            assert r.sim_start == pytest.approx(prev_end)
            assert r.sim_end >= r.sim_start
            prev_end = r.sim_end

    @pytest.mark.parametrize("mode", ["sync", "semisync", "async"])
    def test_span_log_within_clock(self, mode):
        sim, h = run_sim(small_config(mode=mode))
        assert len(sim.spans) > 0
        kinds = {s.kind for s in sim.spans}
        assert kinds == {"train", "upload"}

    @pytest.mark.parametrize("mode", ["sync", "semisync", "async", "hier"])
    def test_dense_updates_record_one_unit_ratio_each(self, mode):
        """A quantiser beneath topk emits dense updates: every mode records
        1.0 per emitted update (sync and hier used to record none)."""
        _, h = run_sim(small_config(mode=mode, compressor="qsgd8"))
        for r in h.records:
            assert r.ratios and set(r.ratios) == {1.0}
            if mode in ("sync", "hier"):  # lock-step: the whole cohort emits
                assert len(r.ratios) == len(r.selected)

    def test_accuracy_vs_simtime_uses_spans(self):
        _, h = run_sim(small_config(mode="async"))
        t, acc = h.accuracy_vs_simtime()
        assert t.size == acc.size > 0
        np.testing.assert_array_equal(t, [r.sim_end for r in h.records if r.test_accuracy is not None])


class TestAsync:
    def test_rounds_count_aggregations_of_k_arrivals(self):
        cfg = small_config(mode="async", buffer_size=2, rounds=5)
        _, h = run_sim(cfg)
        assert len(h) == 5
        for r in h.records:
            assert len(r.selected) == 2  # exactly K contributors per aggregation
            assert len(r.weights) == 2

    def test_buffer_size_one_aggregates_every_arrival(self):
        _, h = run_sim(small_config(mode="async", buffer_size=1, rounds=3))
        assert all(len(r.selected) == 1 for r in h.records)

    def test_staleness_recorded_and_bounded(self):
        _, h = run_sim(small_config(mode="async", rounds=6))
        lags = [r.mean_staleness for r in h.records]
        assert all(s is not None and s >= 0 for s in lags)
        assert any(s > 0 for s in lags)  # slow devices do fall behind

    def test_weights_normalized(self):
        _, h = run_sim(small_config(mode="async", rounds=4))
        for r in h.records:
            assert sum(r.weights) == pytest.approx(1.0)

    def test_staleness_exponent_zero_ignores_lag(self):
        """a=0 ⇒ weights are pure data frequencies regardless of staleness."""
        _, h = run_sim(small_config(mode="async", staleness_exponent=0.0, rounds=4))
        for r in h.records:
            assert sum(r.weights) == pytest.approx(1.0)

    def test_dense_fedavg_runs_async(self):
        _, h = run_sim(small_config(mode="async", algorithm="fedavg", compression_ratio=1.0))
        assert all(r.ratios == tuple(1.0 for _ in r.ratios) for r in h.records)


class TestSemiSync:
    def test_fixed_deadline_bounds_rounds(self):
        cfg = small_config(mode="semisync", deadline_s=1.5, rounds=5)
        _, h = run_sim(cfg)
        for r in h.records:
            # A round spans exactly the deadline unless extended for progress.
            assert r.sim_end - r.sim_start >= 1.5 - 1e-9

    def test_carryover_cannot_outweigh_fresh_majority(self):
        """The fresh arrivals' total mass is set by staleness-discounted
        frequencies, so a lone stale carryover never dominates them."""
        cfg = small_config(
            mode="semisync", rounds=8, deadline_quantile=0.25, compute_heterogeneity=1.0
        )
        _, h = run_sim(cfg)
        saw_mixed = False
        for r in h.records:
            if (r.mean_staleness or 0) == 0 or len(r.weights) < 2:
                continue
            saw_mixed = True
            assert max(r.weights) < 0.75  # no single contributor dominates
        assert saw_mixed

    def test_carryover_produces_stale_contributions(self):
        cfg = small_config(
            mode="semisync", rounds=6, deadline_quantile=0.3, compute_heterogeneity=1.0
        )
        _, h = run_sim(cfg)
        assert any((r.mean_staleness or 0) > 0 for r in h.records)

    def test_drop_never_has_stale_contributions(self):
        cfg = small_config(
            mode="semisync", rounds=6, deadline_quantile=0.3,
            compute_heterogeneity=1.0, late_policy="drop",
        )
        _, h = run_sim(cfg)
        assert all((r.mean_staleness or 0) == 0 for r in h.records)

    def test_policies_diverge(self):
        base = dict(mode="semisync", rounds=6, deadline_quantile=0.3, compute_heterogeneity=1.0)
        _, keep = run_sim(small_config(**base, late_policy="carryover"))
        _, drop = run_sim(small_config(**base, late_policy="drop"))
        assert [r.train_loss for r in keep.records] != [r.train_loss for r in drop.records]

    def test_weights_normalized(self):
        _, h = run_sim(small_config(mode="semisync", rounds=4))
        for r in h.records:
            assert sum(r.weights) == pytest.approx(1.0)

    def test_bcrs_plan_applies_per_round(self):
        """Semi-sync keeps per-round BCRS scheduling (unlike async)."""
        _, h = run_sim(small_config(mode="semisync", algorithm="bcrs", rounds=3))
        realized = [rr for r in h.records for rr in r.ratios]
        assert len(set(realized)) > 1  # per-client scheduled ratios differ


class _CountingSet(set):
    """A client-id set that counts membership probes and full scans."""

    probes = scans = 0

    def __contains__(self, cid):
        self.probes += 1
        return super().__contains__(cid)

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


class TestIdlePickBudget:
    """Picking idle clients costs O(clients in flight), not O(fleet): each
    pick reads the busy set once and never probes it id by id, so no list
    of ``num_clients`` ids is built per arrival or per selection."""

    def test_async_refill_scans_the_in_flight_set_once_per_arrival(self):
        cfg = small_config(mode="async", buffer_size=2, rounds=3)
        with make_simulation(cfg) as sim:
            sim._in_flight = busy = _CountingSet()
            sim.run()
        assert (busy.probes, busy.scans) == (0, cfg.async_buffer_size * cfg.rounds)

    def test_semisync_selection_scans_the_busy_set_once_per_round(self):
        cfg = small_config(mode="semisync", deadline_quantile=0.3, rounds=4)
        with make_simulation(cfg) as sim:
            sim._busy = busy = _CountingSet()
            h = sim.run()
        assert (busy.probes, busy.scans) == (0, cfg.rounds)
        assert any(r.mean_staleness for r in h.records)  # carryover kept clients busy

    def test_picks_the_same_ids_as_the_idle_list(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            busy = set(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist())
            idle = [c for c in range(n) if c not in busy]
            pos = np.sort(rng.choice(len(idle), size=int(rng.integers(1, len(idle) + 1)), replace=False))
            assert _idle_ids(pos, busy) == [idle[i] for i in pos]


class TestReachesSyncTarget:
    def test_all_modes_reach_sync_target_accuracy(self):
        """Acceptance: async/semisync reach the sync baseline's target on
        the quickstart-scale config, in bounded virtual time."""
        cfg = small_config(rounds=10, num_train=400, num_test=200, seed=0)
        _, sync = run_sim(cfg.with_(mode="sync"))
        target = 0.6 * sync.best_accuracy()
        for mode in ("semisync", "async"):
            _, h = run_sim(cfg.with_(mode=mode))
            t = h.simtime_to_accuracy(target)
            assert t is not None, f"{mode} never reached {target:.3f}"
            assert t <= sync.records[-1].sim_end


class TestReviewRegressions:
    def test_async_rejects_time_varying_links(self):
        with pytest.raises(ValueError, match="time_varying_links"):
            make_simulation(small_config(mode="async", time_varying_links=True))

    def test_async_rejects_time_varying_links_at_config_construction(self):
        """The config alone refuses the pair, naming both sides — a sweep
        fails before its first cell runs, not inside the simulation."""
        with pytest.raises(ValueError, match="time_varying_links.*mode='async'"):
            small_config(mode="async", time_varying_links=True)
        with pytest.raises(ValueError, match="time_varying_links.*mode='async'"):
            small_config(time_varying_links=True).with_(mode="async")
        for mode in ("sync", "semisync"):
            assert small_config(mode=mode, time_varying_links=True).time_varying_links

    def test_async_warns_on_schedule_based_algorithms(self):
        import warnings as w

        with pytest.warns(UserWarning, match="uniform Top-K"):
            make_simulation(small_config(mode="async", algorithm="bcrs"))
        with pytest.warns(UserWarning, match="uniform 'qsgd8'"):  # the override is what runs
            make_simulation(small_config(mode="async", algorithm="bcrs", compressor="qsgd8"))
        with w.catch_warnings():
            w.simplefilter("error")  # plain topk must stay silent
            make_simulation(small_config(mode="async", algorithm="topk"))

    def test_flush_batches_a_repeated_client_on_every_backend(self):
        """A fast client dispatched twice in one window trains twice in the
        window's one backend batch. Every backend runs a client's tasks in
        order on one worker (``cid % workers``), so every parallel history
        still equals the serial one."""

        def run(backend):
            cfg = small_config(mode="async", algorithm="eftopk", seed=5)
            sim = make_simulation(cfg.with_(backend=backend, workers=2))
            batches = []
            original = sim._run_tasks

            def recording(tasks, params, spec):
                batches.append([t.cid for t in tasks])
                return original(tasks, params, spec)

            sim._run_tasks = recording
            return trace(sim), batches

        want, batches = run("serial")
        assert any(len(b) > len(set(b)) for b in batches), batches
        for backend in PARALLEL:
            got, other_batches = run(backend)
            assert other_batches == batches
            assert_same_trace(want, got, f"{backend} backend")

    def test_async_comm_time_is_not_wall_time(self):
        """times.actual carries Sec. 5.2 upload semantics; the window's
        wall span lives in sim_start/sim_end."""
        _, h = run_sim(small_config(mode="async", rounds=4))
        for r in h.records:
            assert r.times.actual == r.times.maximum  # slowest aggregated upload
            assert r.times.minimum <= r.times.actual

    @pytest.mark.filterwarnings("ignore:algorithm 'deadline_topk'")  # async degrade note
    @pytest.mark.parametrize("mode", ["sync", "semisync", "async"])
    def test_anticompression_cr_above_half_does_not_crash(self, mode):
        """CR > 0.5 makes (index, value) uploads *bigger* than dense; the
        round-time invariant must survive (was: minimum > maximum crash)."""
        cfg = small_config(mode=mode, algorithm="deadline_topk", compression_ratio=1.0, rounds=2)
        _, h = run_sim(cfg)
        for r in h.records:
            assert r.times.minimum <= r.times.maximum

    @pytest.mark.parametrize("mode", ["semisync", "async"])
    def test_downlink_included_in_comm_fields(self, mode):
        """With include_downlink, broadcast time is part of actual/max/min
        (the RoundTimes invariant the sync plans follow) and recorded split."""
        on = small_config(mode=mode, include_downlink=True)
        off = small_config(mode=mode, include_downlink=False)
        _, h_on = run_sim(on)
        _, h_off = run_sim(off)
        for r_on, r_off in zip(h_on.records, h_off.records):
            assert r_on.times.downlink > 0.0
            assert r_off.times.downlink == 0.0
            assert r_on.times.downlink <= r_on.times.maximum

    @pytest.mark.parametrize("mode", ["semisync", "async"])
    def test_checkpoint_resume_continues_virtual_clock(self, mode, tmp_path):
        from repro.io.checkpoint import load_checkpoint, save_checkpoint

        cfg = small_config(mode=mode, rounds=3)
        with make_simulation(cfg) as sim:
            sim.run()
            end = sim.sim_clock
            save_checkpoint(sim, tmp_path / "ckpt.npz")
        fresh = make_simulation(cfg)
        load_checkpoint(fresh, tmp_path / "ckpt.npz")
        rec = fresh.run_round()
        assert rec.sim_start == pytest.approx(end)  # clock continues, not resets
        assert rec.sim_end > rec.sim_start
        fresh.close()

    def test_sync_deadline_topk_barrier_ignores_dropped_stragglers(self):
        """The virtual span waits only for clients the server aggregates."""
        cfg = small_config(
            mode="sync", algorithm="deadline_topk", deadline_quantile=0.3,
            compute_heterogeneity=1.0, rounds=3,
        )
        with make_simulation(cfg) as sim:
            h = sim.run()
        tightened = False
        for r in h.records:
            included = {c for c, w in zip(r.selected, r.weights) if w > 0.0}
            ends = {
                s.cid: s.end - r.sim_start
                for s in sim.spans
                if s.tag == r.round_index and s.kind == "upload"
            }
            span = r.sim_end - r.sim_start
            assert span == pytest.approx(max(ends[c] for c in included))
            if span < max(ends.values()):  # the overall straggler was dropped
                tightened = True
        assert tightened  # the fix must bite on at least one round

    @pytest.mark.parametrize("mode", ["sync", "semisync", "async"])
    def test_all_lost_round_leaves_no_round_updates(self, mode):
        """A round that loses every upload aggregated nothing, so it reports
        no overlap — not the *previous* window's, which the event-driven
        windows once kept while the sync path already read empty."""
        from repro.network.transport import FaultInjector

        cfg = small_config(mode=mode, rounds=12)
        with make_simulation(cfg) as sim:
            sim.run_round()
            assert sim.last_overlap is not None
            # From here on every upload is lost in flight (uploads already
            # in the async/semisync ingress still land, so run until a
            # window consists of drop-fated arrivals only).
            sim.faults = FaultInjector.from_config(cfg.with_(drop_prob=1.0))
            for _ in range(8):
                record = sim.run_round()
                if record.num_participants == 0:
                    break
            assert record.num_participants == 0
            assert sim.last_overlap is None

