"""Cross-module property-based tests (hypothesis).

These pin down algebraic invariants that individual unit tests can't cover
exhaustively: aggregation linearity, compression/overlap consistency, BCRS
schedule feasibility under arbitrary link populations, and end-to-end
determinism of the engine.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import SparseUpdate
from repro.compression.sparsifiers import TopK
from repro.core.aggregation import weighted_sparse_sum
from repro.core.bcrs import schedule_ratios
from repro.core.coefficients import adjusted_coefficients
from repro.core.opwa import opwa_mask
from repro.core.overlap import narrow_overlap_counts, overlap_distribution
from repro.network.cost import LinkSpec, sparse_uplink_time
from repro.robust.aggregators import robust_aggregate


def random_sparse(rng, d, max_k=None):
    k = int(rng.integers(1, (max_k or d) + 1))
    idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
    vals = rng.normal(size=k).astype(np.float32)
    return SparseUpdate(dense_size=d, indices=idx, values=vals)


class TestAggregationAlgebra:
    @given(st.integers(0, 1000), st.integers(2, 6), st.integers(8, 64))
    @settings(max_examples=40, deadline=None)
    def test_linearity_in_weights(self, seed, n, d):
        """agg(2w) == 2 agg(w) and agg(w1 + w2) == agg(w1) + agg(w2)."""
        rng = np.random.default_rng(seed)
        updates = [random_sparse(rng, d) for _ in range(n)]
        w1 = rng.random(n)
        w2 = rng.random(n)
        a1 = weighted_sparse_sum(updates, w1)
        a2 = weighted_sparse_sum(updates, w2)
        both = weighted_sparse_sum(updates, w1 + w2)
        np.testing.assert_allclose(both, a1 + a2, atol=1e-9)
        np.testing.assert_allclose(weighted_sparse_sum(updates, 2 * w1), 2 * a1, atol=1e-9)

    @given(st.integers(0, 1000), st.integers(2, 6), st.integers(8, 64))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed, n, d):
        """Client order must not matter."""
        rng = np.random.default_rng(seed)
        updates = [random_sparse(rng, d) for _ in range(n)]
        weights = rng.random(n)
        perm = rng.permutation(n)
        a = weighted_sparse_sum(updates, weights)
        b = weighted_sparse_sum([updates[i] for i in perm], weights[perm])
        np.testing.assert_allclose(a, b, atol=1e-9)

    @given(st.integers(0, 500), st.integers(2, 5), st.integers(8, 48), st.floats(1.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_mask_bounds_aggregate(self, seed, n, d, gamma):
        """The γ-masked aggregate is coordinate-wise within γ× the unmasked
        one (same signs, amplified magnitude only where the mask is γ)."""
        rng = np.random.default_rng(seed)
        updates = [random_sparse(rng, d) for _ in range(n)]
        weights = rng.random(n) + 0.1
        mask = opwa_mask(narrow_overlap_counts(updates), gamma)
        plain = weighted_sparse_sum(updates, weights)
        masked = robust_aggregate(updates, weights, mask=mask)
        np.testing.assert_allclose(masked, plain * mask, atol=1e-9)
        # The mask stores gamma as float32; compare against that representation.
        g32 = float(np.float32(gamma))
        assert np.all(np.abs(masked) <= g32 * np.abs(plain) * (1 + 1e-6) + 1e-9)


class TestCompressionOverlapConsistency:
    @given(st.integers(0, 500), st.integers(2, 6), st.integers(20, 200),
           st.floats(0.02, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_distribution_accounts_for_all_retained(self, seed, n, d, ratio):
        rng = np.random.default_rng(seed)
        topk = TopK()
        updates = [topk.compress(rng.normal(size=d).astype(np.float32), ratio) for _ in range(n)]
        dist = overlap_distribution(updates)
        counts = narrow_overlap_counts(updates)
        assert dist.total_retained == int((counts > 0).sum())
        # Total index mass: sum over histogram of degree×count equals nnz sum.
        degrees = np.arange(1, n + 1)
        assert int((dist.counts * degrees).sum()) == sum(u.nnz for u in updates)

    @given(st.integers(0, 500), st.integers(20, 200), st.floats(0.02, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_topk_bits_monotone_in_ratio(self, seed, d, ratio):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=d).astype(np.float32)
        small = TopK().compress(u, max(ratio / 2, 0.01))
        big = TopK().compress(u, ratio)
        assert small.bits <= big.bits + 1e-9


class TestBCRSFeasibility:
    @given(
        st.lists(st.tuples(st.floats(0.05e6, 20e6), st.floats(0.0, 0.5)), min_size=1, max_size=15),
        st.floats(0.005, 0.9),
        st.floats(1e5, 1e9),
    )
    @settings(max_examples=60, deadline=None)
    def test_schedule_never_misses_benchmark(self, raw, default_cr, volume):
        links = [LinkSpec(b, lat) for b, lat in raw]
        sched = schedule_ratios(links, volume, default_cr)
        # Feasibility: every scheduled upload fits in the benchmark window.
        for link, cr in zip(links, sched.ratios):
            assert sparse_uplink_time(link, volume, cr) <= sched.t_bench * (1 + 1e-9)

    @given(
        st.integers(2, 10),
        st.floats(0.01, 0.99),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_eq6_weights_bounded_for_scheduled_ratios(self, n, default_cr, alpha):
        rng = np.random.default_rng(n)
        links = [LinkSpec(rng.uniform(0.1e6, 5e6), rng.uniform(0.01, 0.3)) for _ in range(n)]
        sched = schedule_ratios(links, 32e6, default_cr)
        f = rng.dirichlet(np.ones(n))
        p = adjusted_coefficients(f, sched.ratios, alpha)
        assert np.all(p > 0)
        assert np.all(p <= alpha + 1e-12)


class TestEngineDeterminism:
    @given(st.integers(0, 20))
    @settings(max_examples=5, deadline=None)
    def test_runs_reproduce_bitwise(self, seed):
        from repro.fl.config import ExperimentConfig
        from repro.fl.simulation import Simulation

        cfg = ExperimentConfig(
            num_train=300, num_test=80, rounds=3, num_clients=4, participation=0.5,
            lr=0.1, model="mlp", algorithm="bcrs_opwa", compression_ratio=0.1,
            seed=seed, eval_every=3,
        )
        a = Simulation(cfg)
        b = Simulation(cfg)
        a.run()
        b.run()
        np.testing.assert_array_equal(a.global_params, b.global_params)
