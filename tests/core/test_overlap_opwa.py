"""Tests for the degree-of-overlap metric and the OPWA mask."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import SparseUpdate
from repro.compression.sparsifiers import TopK
from repro.core.opwa import opwa_mask, opwa_mask_from_updates
from repro.core.overlap import narrow_overlap_counts, overlap_distribution


def sparse(d, idx, vals=None):
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.ones(len(idx), np.float32) if vals is None else np.asarray(vals, np.float32)
    return SparseUpdate(dense_size=d, indices=idx, values=vals)


class TestOverlapCounts:
    def test_fig3_example(self):
        """The Fig. 3 style scenario: overlapping vs unique indices."""
        u1 = sparse(8, [1, 4, 7])
        u2 = sparse(8, [1, 3, 7])
        u3 = sparse(8, [1, 5])
        counts = narrow_overlap_counts([u1, u2, u3])
        np.testing.assert_array_equal(counts, [0, 3, 0, 1, 1, 1, 0, 2])

    def test_single_update(self):
        counts = narrow_overlap_counts([sparse(4, [0, 2])])
        np.testing.assert_array_equal(counts, [1, 0, 1, 0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            narrow_overlap_counts([sparse(4, [0]), sparse(5, [0])])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            narrow_overlap_counts([])

    @given(st.integers(2, 6), st.integers(10, 60))
    @settings(max_examples=30, deadline=None)
    def test_counts_bounded_by_clients(self, n_clients, d):
        rng = np.random.default_rng(d)
        updates = []
        for _ in range(n_clients):
            k = rng.integers(1, d)
            idx = np.sort(rng.choice(d, size=k, replace=False))
            updates.append(sparse(d, idx))
        counts = narrow_overlap_counts(updates)
        assert counts.max() <= n_clients
        assert counts.sum() == sum(u.nnz for u in updates)


class TestOverlapDistribution:
    def test_histogram(self):
        u1 = sparse(8, [1, 4, 7])
        u2 = sparse(8, [1, 3, 7])
        u3 = sparse(8, [1, 5])
        dist = overlap_distribution([u1, u2, u3])
        # indices: 1 appears ×3, 7 ×2, and 3,4,5 ×1 → hist [3, 1, 1]
        np.testing.assert_array_equal(dist.counts, [3, 1, 1])
        assert dist.total_retained == 5
        np.testing.assert_allclose(dist.fractions(), [0.6, 0.2, 0.2])
        assert dist.singleton_fraction() == pytest.approx(0.6)

    def test_high_compression_mostly_singletons(self):
        """The paper's Fig. 4 finding: at high compression on non-aligned
        updates, most retained indices appear in one client only."""
        rng = np.random.default_rng(0)
        d = 20000
        topk = TopK()
        # Clients with independently random updates (severe non-IID proxy).
        updates = [topk.compress(rng.normal(size=d).astype(np.float32), 0.01) for _ in range(5)]
        dist = overlap_distribution(updates)
        assert dist.singleton_fraction() > 0.8

    def test_identical_updates_full_overlap(self):
        u = np.zeros(100, dtype=np.float32)
        u[:10] = np.arange(10, 0, -1)
        updates = [TopK().compress(u, 0.1) for _ in range(4)]
        dist = overlap_distribution(updates)
        np.testing.assert_array_equal(dist.counts, [0, 0, 0, 10])
        assert dist.singleton_fraction() == 0.0


class TestOpwaMask:
    def test_alg3_default(self):
        counts = np.array([0, 1, 2, 3, 1])
        mask = opwa_mask(counts, gamma=5.0)
        np.testing.assert_array_equal(mask, [1, 5, 1, 1, 5])

    def test_required_overlap_threshold(self):
        counts = np.array([0, 1, 2, 3])
        mask = opwa_mask(counts, gamma=4.0, required_overlap=2)
        np.testing.assert_array_equal(mask, [1, 4, 4, 1])

    def test_gamma_one_is_identity(self):
        counts = np.array([0, 1, 5])
        np.testing.assert_array_equal(opwa_mask(counts, 1.0), 1.0)

    def test_unretained_indices_untouched(self):
        mask = opwa_mask(np.zeros(5, dtype=int), gamma=9.0)
        np.testing.assert_array_equal(mask, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            opwa_mask(np.array([1]), gamma=0.0)
        with pytest.raises(ValueError):
            opwa_mask(np.array([1]), gamma=2.0, required_overlap=0)
        with pytest.raises(ValueError):
            opwa_mask(np.zeros((2, 2), int), gamma=2.0)

    def test_from_updates_convenience(self):
        u1 = sparse(6, [0, 1])
        u2 = sparse(6, [1, 2])
        mask = opwa_mask_from_updates([u1, u2], gamma=3.0)
        np.testing.assert_array_equal(mask, [3, 1, 3, 1, 1, 1])

    @given(st.floats(1.0, 10.0), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_mask_values_property(self, gamma, d_req):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 6, size=50)
        mask = opwa_mask(counts, gamma, required_overlap=d_req)
        assert set(np.unique(mask)) <= {1.0, np.float32(gamma)}
