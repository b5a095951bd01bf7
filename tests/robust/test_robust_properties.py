"""Algebraic contracts of the robustness subsystem (hypothesis).

Property tests over :mod:`repro.robust` and the transport fault injector:
permutation invariance and breakdown points of the order-statistic
aggregators (and proof that the plain mean *has* no breakdown point), the
norm-clip influence bound, bit-exact agreement of ``robust_aggregate``
with the historical weighted mean, and the pure-function guarantees of
adversary membership and fault fates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import DenseUpdate, SparseUpdate
from repro.core.aggregation import clipped_weight, fold_list, weighted_sparse_sum
from repro.network.transport import FaultInjector
from repro.robust.aggregators import robust_aggregate
from repro.robust.attacks import apply_delta_attack, flip_labels, is_adversary


def coordinate_median(updates):
    return robust_aggregate(updates, None, aggregator="median")


def trimmed_mean(updates, beta):
    return robust_aggregate(updates, None, aggregator="trimmed_mean", trim_beta=beta)


def densify_updates(updates):
    """The cohort's rows as an order-statistic rule's fold densifies them."""
    return fold_list(updates, aggregator="median").rows


def norm_clip_weights(updates, weights, tau):
    """Each weight as the norm-clip rule's fold scales it on arrival."""
    return np.array([clipped_weight(u, w, tau) for u, w in zip(updates, weights)])


def random_sparse(rng, d):
    k = int(rng.integers(1, d + 1))
    idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
    vals = rng.normal(size=k).astype(np.float32)
    return SparseUpdate(dense_size=d, indices=idx, values=vals)


def random_cohort(seed, n, d):
    rng = np.random.default_rng(seed)
    updates = [random_sparse(rng, d) for _ in range(n)]
    weights = rng.random(n) + 0.1
    return updates, weights / weights.sum()


class TestOrderStatisticAggregators:
    @given(st.integers(0, 1000), st.integers(3, 8), st.integers(4, 32))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed, n, d):
        """Median and trimmed mean see a multiset, not a sequence."""
        updates, _ = random_cohort(seed, n, d)
        perm = np.random.default_rng(seed + 1).permutation(n)
        shuffled = [updates[i] for i in perm]
        assert np.array_equal(
            coordinate_median(updates), coordinate_median(shuffled)
        )
        assert np.array_equal(
            trimmed_mean(updates, 0.25), trimmed_mean(shuffled, 0.25)
        )

    @given(st.integers(0, 1000), st.integers(2, 8), st.integers(4, 32))
    @settings(max_examples=30, deadline=None)
    def test_trim_nothing_is_the_unweighted_mean(self, seed, n, d):
        """β small enough to trim zero rows degrades to the plain mean."""
        updates, _ = random_cohort(seed, n, d)
        rows = densify_updates(updates)
        np.testing.assert_allclose(
            trimmed_mean(updates, 0.0), rows.mean(axis=0), rtol=1e-12, atol=0
        )

    @given(st.integers(0, 1000), st.integers(5, 9), st.integers(4, 16))
    @settings(max_examples=30, deadline=None)
    def test_breakdown_point(self, seed, n, d):
        """Fewer than ⌊β·n⌋ (median: < n/2) arbitrary updates cannot push
        the order statistics outside the honest cohort's envelope — while
        the same corruption provably breaks the weighted mean."""
        rng = np.random.default_rng(seed)
        honest = [
            DenseUpdate(
                dense_size=d,
                values=rng.uniform(-1, 1, size=d).astype(np.float32),
            )
            for _ in range(n)
        ]
        beta = 0.3
        m = max(1, min(int(beta * n), (n - 1) // 2 - 1 + (n % 2)))
        evil = [
            DenseUpdate(
                dense_size=d,
                values=np.full(d, 1e8, dtype=np.float32),
            )
            for _ in range(m)
        ]
        cohort = honest + evil
        env = densify_updates(honest)
        lo, hi = env.min(axis=0), env.max(axis=0)

        med = coordinate_median(cohort)
        tm = trimmed_mean(cohort, beta)
        assert np.all(med <= hi) and np.all(med >= lo)
        assert np.all(tm <= hi) and np.all(tm >= lo)

        mean = weighted_sparse_sum(cohort, np.full(n + m, 1.0 / (n + m)))
        assert np.any(mean > hi)  # the mean followed the adversary


class TestNormClip:
    @given(st.integers(0, 1000), st.integers(2, 8), st.integers(4, 32))
    @settings(max_examples=30, deadline=None)
    def test_influence_bound(self, seed, n, d):
        """‖Σ wᵢ'uᵢ‖ ≤ τ·Σwᵢ after clipping, whatever the updates."""
        updates, weights = random_cohort(seed, n, d)
        tau = 0.5
        clipped = norm_clip_weights(updates, weights, tau)
        agg = weighted_sparse_sum(updates, clipped)
        assert float(np.linalg.norm(agg)) <= tau * weights.sum() * (1 + 1e-9)

    @given(st.integers(0, 1000), st.integers(2, 8), st.integers(4, 32))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_when_nothing_clips(self, seed, n, d):
        """Updates inside the radius keep their exact weights, so the
        norm-clip rule *is* the weighted mean, bit for bit."""
        updates, weights = random_cohort(seed, n, d)
        tau = max(
            float(np.linalg.norm(np.asarray(u.values, dtype=np.float64)))
            for u in updates
        ) + 1.0
        assert np.array_equal(norm_clip_weights(updates, weights, tau), weights)
        assert np.array_equal(
            robust_aggregate(
                updates, weights, aggregator="norm_clip", clip_tau=tau
            ),
            robust_aggregate(updates, weights, aggregator="mean"),
        )


class TestDispatch:
    @given(st.integers(0, 1000), st.integers(2, 6), st.integers(4, 32))
    @settings(max_examples=30, deadline=None)
    def test_mean_is_the_historical_aggregate(self, seed, n, d):
        """``robust_aggregate('mean')`` is weighted_sparse_sum, bit for bit
        — the honest path cannot drift when the dispatcher lands."""
        updates, weights = random_cohort(seed, n, d)
        assert np.array_equal(
            robust_aggregate(updates, weights, aggregator="mean"),
            weighted_sparse_sum(updates, weights),
        )

    def test_bad_rules_rejected(self):
        updates, weights = random_cohort(0, 3, 8)
        with pytest.raises(ValueError, match="unknown aggregator"):
            robust_aggregate(updates, weights, aggregator="krum")
        with pytest.raises(ValueError, match="clip_tau"):
            robust_aggregate(updates, weights, aggregator="norm_clip")


class TestAdversaryMembership:
    def test_fraction_edges(self):
        assert not any(is_adversary(7, cid, 0.0) for cid in range(100))
        assert all(is_adversary(7, cid, 1.0) for cid in range(100))

    @given(st.integers(0, 10_000), st.integers(0, 1_000_000))
    @settings(max_examples=50, deadline=None)
    def test_pure_function(self, seed, cid):
        assert is_adversary(seed, cid, 0.3) == is_adversary(seed, cid, 0.3)

    @given(
        st.integers(0, 10_000),
        st.integers(0, 1_000_000),
        st.floats(0.01, 0.98),
        st.floats(0.01, 0.98),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_fraction(self, seed, cid, f1, f2):
        """Raising the fraction only ever adds adversaries (one uniform
        draw per client, thresholded) — sweeps over adversary_fraction
        corrupt nested client sets."""
        lo, hi = sorted((f1, f2))
        if is_adversary(seed, cid, lo):
            assert is_adversary(seed, cid, hi)

    def test_expected_fraction(self):
        frac = sum(is_adversary(7, cid, 0.3) for cid in range(4000)) / 4000
        assert abs(frac - 0.3) < 0.03

    @pytest.mark.parametrize(
        "seed,fraction,packed",
        [
            (0, 0.1, "1020c000000040200100000000008010100201011040000404"),
            (0, 0.4, "7aa0cc13811f64a4179d131c849980133a8a01791a4b001584"),
            (7, 0.1, "8000010000000000030000400400000208002a000001430000"),
            (7, 0.4, "e6e0f9c2204205000b05424025b471f30e026a41335b43ce26"),
        ],
    )
    def test_first_200_draws_are_pinned(self, seed, fraction, packed):
        """Membership of clients 0..199, bit-packed, as recorded while every
        call still built its own ``RngFactory``."""
        bits = np.array([is_adversary(seed, cid, fraction) for cid in range(200)])
        assert np.packbits(bits).tobytes().hex() == packed

    def test_one_key_digest_per_seed(self, monkeypatch):
        """All draws of a seed go through one factory, so the stream name is
        hashed once, not once per client."""
        import hashlib

        from repro.robust import attacks

        calls = []
        real = hashlib.blake2b
        monkeypatch.setattr(
            hashlib, "blake2b", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        attacks._factory.cache_clear()
        for seed in (3, 4):
            for cid in range(50):
                is_adversary(seed, cid, 0.5)
        assert len(calls) == 2


class TestAttacks:
    def test_sign_flip_is_an_involution(self):
        rng = np.random.default_rng(0)
        delta = rng.normal(size=64)
        orig = delta.copy()
        apply_delta_attack(delta, "sign_flip")
        assert np.array_equal(delta, -orig)
        apply_delta_attack(delta, "sign_flip")
        assert np.array_equal(delta, orig)

    def test_scaled_inflates(self):
        delta = np.ones(8)
        apply_delta_attack(delta, "scaled", scale=10.0)
        assert np.array_equal(delta, np.full(8, 10.0))

    def test_label_flip_is_a_delta_noop(self):
        delta = np.arange(4.0)
        apply_delta_attack(delta, "label_flip")
        assert np.array_equal(delta, np.arange(4.0))

    def test_flip_labels_involution(self):
        y = np.arange(10, dtype=np.int64)
        flipped = flip_labels(y.copy(), 10)
        assert np.array_equal(flipped, np.arange(9, -1, -1))
        assert np.array_equal(flip_labels(flipped.copy(), 10), y)


class TestFaultInjector:
    def test_fate_edges(self):
        drop = FaultInjector(7, drop_prob=1.0)
        assert all(
            drop.fate(e, c) == ("drop", 0.0) for e in range(5) for c in range(5)
        )
        trunc = FaultInjector(7, truncate_prob=1.0)
        for e in range(5):
            for c in range(5):
                kind, frac = trunc.fate(e, c)
                assert kind == "truncate" and 0.0 <= frac < 1.0

    @given(st.integers(0, 10_000), st.integers(0, 100), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_fate_pure_function(self, seed, epoch, cid):
        inj = FaultInjector(seed, drop_prob=0.2, truncate_prob=0.3)
        again = FaultInjector(seed, drop_prob=0.2, truncate_prob=0.3)
        assert inj.fate(epoch, cid) == again.fate(epoch, cid)

    def test_truncate_keeps_a_priced_prefix(self):
        u = SparseUpdate(
            dense_size=16,
            indices=np.arange(8, dtype=np.int64),
            values=np.arange(8, dtype=np.float32),
        )
        cut = FaultInjector.truncate(u, 0.5)
        assert cut.nnz == 4
        assert np.array_equal(cut.indices, u.indices[:4])
        assert np.array_equal(cut.values, u.values[:4])
        assert cut.bits == u.bits / 2
        assert FaultInjector.truncate(u, 0.05) is None  # k < 1: nothing left

    def test_truncate_delivers_a_view_of_the_upload(self):
        """Every update owns its arrays (no buffer is recycled under it), so
        the delivered prefix is a view, not a copy."""
        u = SparseUpdate(
            dense_size=16,
            indices=np.arange(8, dtype=np.int64),
            values=np.arange(8, dtype=np.float32),
        )
        cut = FaultInjector.truncate(u, 0.5)
        assert np.shares_memory(cut.indices, u.indices)
        assert np.shares_memory(cut.values, u.values)

    def test_truncate_discards_dense_blocks(self):
        u = DenseUpdate(dense_size=4, values=np.ones(4, dtype=np.float32))
        assert FaultInjector.truncate(u, 0.9) is None

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(7, drop_prob=0.6, truncate_prob=0.6)
        with pytest.raises(ValueError):
            FaultInjector(7, drop_prob=-0.1)
