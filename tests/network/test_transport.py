"""Unit + property tests for the unified transport layer.

Covers the payload-accurate pricing contract (exact emitted bits, including
the quantization regression: an 8-bit upload must be ~4× faster than the
32-bit dense one on the same link) and the fair-ingress water-filling
invariants: fair sharing never beats an exclusive link, per-flow rates never
exceed the last-mile rate, and the aggregate never exceeds the ingress
capacity.
"""

import numpy as np
import pytest

from repro.compression.base import DenseUpdate, SparseUpdate
from repro.compression.quantization import QSGDQuantizer
from repro.network.cost import LinkSpec, uplink_time
from repro.network.links import LinkModel, sample_links
from repro.network.transport import MBIT, IngressPipe, Payload, Transport

LINK = LinkSpec(bandwidth_bps=1e6, latency_s=0.1)


class TestPayload:
    def test_dense_bits_and_kind(self):
        p = Payload.dense(32e6)
        assert p.bits == 32e6 and p.kind == "dense"
        assert p.nbytes == 4e6

    def test_from_sparse_update_uses_index_plus_value_bits(self):
        """Satellite: sparse wire volume comes from the update's own
        index_bits + value_bits, not the hard-coded factor 2."""
        u = SparseUpdate(
            dense_size=1000,
            indices=np.arange(10, dtype=np.int64),
            values=np.ones(10, dtype=np.float32),
            index_bits=16,
            value_bits=8,
        )
        p = Payload.from_update(u)
        assert p.kind == "sparse"
        assert p.bits == 10 * (16 + 8)

    def test_from_quantized_update(self):
        u = DenseUpdate(dense_size=100, values=np.zeros(100, dtype=np.float32), value_bits=8)
        p = Payload.from_update(u)
        assert p.kind == "quantized"
        assert p.bits == 100 * 8

    def test_from_full_precision_dense_update(self):
        u = DenseUpdate(dense_size=100, values=np.zeros(100, dtype=np.float32))
        assert Payload.from_update(u) == Payload.dense(100 * 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            Payload(bits=-1.0)
        with pytest.raises(ValueError):
            Payload(bits=1.0, kind="carrier-pigeon")


class TestQuantizationPricingRegression:
    """The historical bug: reduced value_bits contributed nothing to
    transfer time — an 8-bit QSGD upload was charged as 32-bit dense."""

    def test_8bit_upload_is_4x_faster_than_dense(self):
        transport = Transport()
        d = 100_000
        rng = np.random.default_rng(0)
        delta = rng.standard_normal(d).astype(np.float32)
        quantized = QSGDQuantizer(bits=8, seed=0).compress(delta)
        dense = DenseUpdate(dense_size=d, values=delta)
        # Compare transmission (volume) components; latency is additive.
        t_q = transport.uplink_seconds(LINK, Payload.from_update(quantized)) - LINK.latency_s
        t_d = transport.uplink_seconds(LINK, Payload.from_update(dense)) - LINK.latency_s
        assert t_q == pytest.approx(t_d / 4.0)
        assert t_q < t_d

    def test_quantized_total_time_beats_dense_on_same_link(self):
        u8 = DenseUpdate(dense_size=50_000, values=np.zeros(50_000, np.float32), value_bits=8)
        u32 = DenseUpdate(dense_size=50_000, values=np.zeros(50_000, np.float32))
        t = Transport()
        assert t.uplink_seconds(LINK, Payload.from_update(u8)) < t.uplink_seconds(
            LINK, Payload.from_update(u32)
        )


class TestExclusivePipe:
    def test_orders_by_finish_then_admission(self):
        pipe = IngressPipe(None)
        a = pipe.admit(8e5, LINK, 0.0)  # finishes 0.9
        b = pipe.admit(1e5, LINK, 0.0)  # finishes 0.2
        c = pipe.admit(1e5, LINK, 0.0, finish=0.2)  # tie with b → admission order
        order = [fid for _, fid in [pipe.pop_next(), pipe.pop_next(), pipe.pop_next()]]
        assert order == [b, c, a]

    def test_explicit_finish_is_preserved_bitwise(self):
        pipe = IngressPipe(None)
        finish = 0.1 + 1e6 / 3e6  # some non-representable sum
        fid = pipe.admit(1e6, LINK, 0.0, finish=finish)
        assert pipe.pop_next() == (finish, fid)

    def test_default_finish_matches_eq4(self):
        pipe = IngressPipe(None)
        fid = pipe.admit(1e6, LINK, 2.0)
        t, got = pipe.pop_next()
        assert got == fid
        assert t == pytest.approx(2.0 + uplink_time(LINK, 1e6))

    def test_pop_until_is_inclusive(self):
        pipe = IngressPipe(None)
        pipe.admit(0.0, LINK, 0.0, finish=1.0)
        pipe.admit(0.0, LINK, 0.0, finish=2.0)
        assert [t for t, _ in pipe.pop_until(1.0)] == [1.0]
        assert len(pipe) == 1

    def test_cancel_removes_flow(self):
        pipe = IngressPipe(None)
        a = pipe.admit(0.0, LINK, 0.0, finish=1.0)
        b = pipe.admit(0.0, LINK, 0.0, finish=2.0)
        pipe.cancel(a)
        assert pipe.pop_next() == (2.0, b)
        assert pipe.pop_next() is None


def random_flows(seed: int, n: int):
    """(bits, link, start) draws over the paper's link model."""
    rng = np.random.default_rng(seed)
    links = sample_links(n, LinkModel(), seed=rng)
    starts = np.sort(rng.uniform(0.0, 2.0, size=n))
    bits = rng.uniform(1e5, 4e6, size=n)
    return [(float(b), link, float(s)) for b, link, s in zip(bits, links, starts)]


class TestFairPipeProperties:
    """Water-filling invariants over random flow populations."""

    CAPACITY = 2.0 * MBIT

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_fair_never_beats_exclusive(self, seed, n):
        flows = random_flows(seed, n)
        pipe = IngressPipe(self.CAPACITY)
        fids = [pipe.admit(b, link, s) for b, link, s in flows]
        pipe.drain()
        for fid, (b, link, s) in zip(fids, flows):
            exclusive = s + link.latency_s + b / link.bandwidth_bps
            assert pipe.finish_time(fid) >= exclusive - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_rates_respect_capacity_and_links(self, seed):
        flows = random_flows(seed, 8)
        pipe = IngressPipe(self.CAPACITY, trace=True)
        fids = [pipe.admit(b, link, s) for b, link, s in flows]
        pipe.drain()
        link_of = {fid: link for fid, (_, link, _) in zip(fids, flows)}
        assert pipe.segments  # the fluid sim actually ran
        for t0, t1, rates in pipe.segments:
            assert t1 > t0
            assert sum(r for _, r in rates) <= self.CAPACITY * (1 + 1e-12)
            for fid, r in rates:
                assert r <= link_of[fid].bandwidth_bps * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_flows_transfer_exactly_their_bits(self, seed):
        flows = random_flows(seed, 6)
        pipe = IngressPipe(self.CAPACITY, trace=True)
        fids = [pipe.admit(b, link, s) for b, link, s in flows]
        pipe.drain()
        moved = {fid: 0.0 for fid in fids}
        for t0, t1, rates in pipe.segments:
            for fid, r in rates:
                moved[fid] += r * (t1 - t0)
        for fid, (b, _, _) in zip(fids, flows):
            assert moved[fid] == pytest.approx(b, rel=1e-6)

    def test_single_flow_matches_exclusive(self):
        pipe = IngressPipe(self.CAPACITY)
        fid = pipe.admit(1e6, LINK, 0.5)
        pipe.drain()
        assert pipe.finish_time(fid) == pytest.approx(0.5 + uplink_time(LINK, 1e6))

    def test_two_equal_flows_halve_the_capacity(self):
        fast = LinkSpec(bandwidth_bps=10 * MBIT, latency_s=0.0)
        pipe = IngressPipe(2.0 * MBIT)
        a = pipe.admit(2e6, fast, 0.0)
        b = pipe.admit(2e6, fast, 0.0)
        pipe.drain()
        # Both backlogged on the shared 2 Mbit/s pipe → 1 Mbit/s each → 2 s.
        assert pipe.finish_time(a) == pytest.approx(2.0)
        assert pipe.finish_time(b) == pytest.approx(2.0)

    def test_slow_link_flow_does_not_starve_fast_one(self):
        """Max-min: a flow bottlenecked by its own link frees capacity."""
        slow = LinkSpec(bandwidth_bps=0.2 * MBIT, latency_s=0.0)
        fast = LinkSpec(bandwidth_bps=10 * MBIT, latency_s=0.0)
        pipe = IngressPipe(2.0 * MBIT)
        a = pipe.admit(1e6, slow, 0.0)  # capped at 0.2 Mb/s → 5 s
        b = pipe.admit(1.8e6, fast, 0.0)  # gets the remaining 1.8 Mb/s → 1 s
        pipe.drain()
        assert pipe.finish_time(a) == pytest.approx(5.0)
        assert pipe.finish_time(b) == pytest.approx(1.0)

    def test_completion_frees_share_for_survivors(self):
        fast = LinkSpec(bandwidth_bps=10 * MBIT, latency_s=0.0)
        pipe = IngressPipe(2.0 * MBIT)
        a = pipe.admit(1e6, fast, 0.0)
        b = pipe.admit(3e6, fast, 0.0)
        pipe.drain()
        # Phase 1: both at 1 Mb/s until a completes at t=1 (1e6 bits).
        # Phase 2: b alone at 2 Mb/s for its remaining 2e6 bits → t=2.
        assert pipe.finish_time(a) == pytest.approx(1.0)
        assert pipe.finish_time(b) == pytest.approx(2.0)

    def test_cancel_frees_capacity(self):
        fast = LinkSpec(bandwidth_bps=10 * MBIT, latency_s=0.0)
        with_rival = IngressPipe(2.0 * MBIT)
        a1 = with_rival.admit(2e6, fast, 0.0)
        with_rival.admit(2e6, fast, 0.0)
        with_rival.drain()
        cancelled = IngressPipe(2.0 * MBIT)
        a2 = cancelled.admit(2e6, fast, 0.0)
        rival = cancelled.admit(2e6, fast, 0.0)
        cancelled.pop_until(0.5)  # resolve the frontier to the cancel point
        cancelled.cancel(rival)
        cancelled.drain()
        assert cancelled.finish_time(a2) < with_rival.finish_time(a1)

    def test_backward_pop_until_cannot_rewind_the_clock(self):
        """A pop_until earlier than the resolved frontier must not rewind
        the fluid clock and double-count drained bits (was: finish times
        came back too early)."""
        slow = LinkSpec(bandwidth_bps=1.0 * MBIT, latency_s=0.0)
        pipe = IngressPipe(2.0 * MBIT)
        a = pipe.admit(1e6, slow, 0.0)
        b = pipe.admit(1e6, slow, 0.0)
        assert pipe.pop_until(0.3) == []
        assert pipe.pop_until(0.1) == []  # behind the frontier: no-op
        pipe.drain()
        assert pipe.finish_time(a) == pytest.approx(1.0)
        assert pipe.finish_time(b) == pytest.approx(1.0)

    def test_retroactive_admission_rejected(self):
        pipe = IngressPipe(self.CAPACITY)
        pipe.admit(1e6, LINK, 1.0)
        pipe.drain()  # frontier moves past the completion
        with pytest.raises(RuntimeError, match="retroactive"):
            pipe.admit(1e6, LINK, 0.0)

    def test_untraced_pipe_stays_bounded(self):
        """No trace flag → no fluid-segment accumulation (long-lived
        protocol pipes must not grow with the event count), and streaming
        pops release the finish map."""
        pipe = IngressPipe(self.CAPACITY)
        for b, link, s in random_flows(0, 10):
            pipe.admit(b, link, s)
        while pipe.pop_next() is not None:
            pass
        assert pipe.segments == []
        assert pipe._finish == {}

    def test_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            pipe = IngressPipe(self.CAPACITY)
            fids = [pipe.admit(b, link, s) for b, link, s in random_flows(5, 10)]
            pipe.drain()
            runs.append([pipe.finish_time(f) for f in fids])
        assert runs[0] == runs[1]  # bitwise, not approx

    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_event_budget_is_linear_in_flows(self, n, monkeypatch):
        """A batch of N flows resolves in one fluid event per entry and per
        completion — 2N ``_advance`` steps and 2N − 1 ``_rates`` solves (the
        first step only moves the idle frontier to the first entry), never
        one solve per (event, flow) pair. Counts, not flows per second: they
        repeat exactly."""
        counts = {"advance": 0, "rates": 0}

        def counting(key, inner):
            def wrapper(*args):
                counts[key] += 1
                return inner(*args)

            return wrapper

        monkeypatch.setattr(IngressPipe, "_advance", counting("advance", IngressPipe._advance))
        monkeypatch.setattr(IngressPipe, "_rates", counting("rates", IngressPipe._rates))
        pipe = IngressPipe(5.0 * MBIT)
        for i, link in enumerate(sample_links(n, LinkModel(), seed=1)):
            pipe.admit(1e6 + 1e4 * i, link, 0.1 * (i % 7))
        assert len(pipe.drain()) == n
        assert counts == {"advance": 2 * n, "rates": 2 * n - 1}


class TestTransport:
    def test_contention_validation(self):
        with pytest.raises(ValueError, match="contention"):
            Transport(contention="lossy")
        with pytest.raises(ValueError, match="server_ingress_bps"):
            Transport(contention="fair")

    def test_fair_batch_never_faster(self):
        flows = [(Payload.dense(1e6), LINK, 0.0), (Payload.dense(1e6), LINK, 0.0)]
        fair = Transport("fair", 1.0 * MBIT).resolve_uploads(flows)
        for (payload, link, start), f in zip(flows, fair):
            assert f.end >= start + Transport().uplink_seconds(link, payload) - 1e-9
            assert f.seconds == f.end - start

    def test_pipe_is_persistent(self):
        t = Transport("fair", 1.0 * MBIT)
        assert t.pipe() is t.pipe()

    def test_pipe_is_scoped_to_its_transport(self):
        assert Transport("fair", 1.0 * MBIT).pipe() is not Transport("fair", 1.0 * MBIT).pipe()
        assert Transport("fair", 1.0 * MBIT).pipe().capacity_bps == 1.0 * MBIT
        assert Transport().pipe().capacity_bps is None  # uncontended: exclusive links

    def test_broadcast_free_link_costs_nothing(self):
        t = Transport()
        assert t.broadcast_seconds(None, Payload.dense(1e9)) == 0.0
        assert t.broadcast_seconds(LINK, Payload.dense(1e6)) > 0.0
