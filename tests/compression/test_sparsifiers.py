"""Tests for Top-K / Random-K / threshold sparsification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression.base import SparseUpdate, compression_error
from repro.compression.sparsifiers import RandomK, ThresholdSparsifier, TopK, k_from_ratio


class TestKFromRatio:
    @pytest.mark.parametrize("d,r,expected", [(100, 0.1, 10), (100, 0.01, 1), (100, 1.0, 100), (7, 0.5, 4)])
    def test_known(self, d, r, expected):
        assert k_from_ratio(d, r) == expected

    def test_at_least_one(self):
        assert k_from_ratio(1000, 0.0001) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            k_from_ratio(0, 0.5)
        with pytest.raises(ValueError):
            k_from_ratio(10, 0.0)


class TestSparseUpdate:
    def test_roundtrip(self):
        s = SparseUpdate(dense_size=5, indices=np.array([1, 3]), values=np.array([2.0, -1.0], np.float32))
        np.testing.assert_array_equal(s.to_dense(), [0, 2, 0, -1, 0])
        assert s.nnz == 2
        assert s.density == pytest.approx(0.4)
        assert s.bits == 2 * 64

    @pytest.mark.parametrize("indices", [[3, 1], [1, 1], [0, 2, 2, 4], [0, 4, 3]])
    def test_rejects_unsorted(self, indices):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseUpdate(dense_size=5, indices=np.array(indices), values=np.zeros(len(indices), np.float32))

    @pytest.mark.parametrize("indices", [[0, 2], [-1, 0], [2], [-1]])
    def test_rejects_out_of_range(self, indices):
        with pytest.raises(ValueError, match="out of range"):
            SparseUpdate(dense_size=2, indices=np.array(indices), values=np.zeros(len(indices), np.float32))

    @pytest.mark.parametrize("indices", [[5, 1], [1, -1, 0], [0, 7, 3], [2, 2, 9]])
    def test_out_of_range_reported_before_unsorted(self, indices):
        """The extremes of an unsorted array are not at its ends."""
        with pytest.raises(ValueError, match="out of range"):
            SparseUpdate(dense_size=5, indices=np.array(indices), values=np.zeros(len(indices), np.float32))

    def test_to_dense_with_out(self):
        s = SparseUpdate(dense_size=3, indices=np.array([0]), values=np.array([1.0], np.float32))
        buf = np.full(3, 9.0, dtype=np.float32)
        out = s.to_dense(out=buf)
        assert out is buf
        np.testing.assert_array_equal(out, [1, 0, 0])


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        u = np.array([0.1, -5.0, 0.2, 3.0, -0.05], dtype=np.float32)
        s = TopK().compress(u, 0.4)
        np.testing.assert_array_equal(s.indices, [1, 3])
        np.testing.assert_array_equal(s.values, [-5.0, 3.0])

    def test_full_ratio_identity(self, rng):
        u = rng.normal(size=50).astype(np.float32)
        s = TopK().compress(u, 1.0)
        np.testing.assert_array_equal(s.to_dense(), u)

    def test_density_matches_ratio(self, rng):
        u = rng.normal(size=1000).astype(np.float32)
        s = TopK().compress(u, 0.1)
        assert s.nnz == 100

    @given(arrays(np.float32, st.integers(5, 200), elements=st.floats(-10, 10, width=32)),
           st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_optimality_property(self, u, ratio):
        """Top-K is the best k-sparse L2 approximation: every kept magnitude
        >= every dropped magnitude."""
        s = TopK().compress(u, ratio)
        kept = np.zeros(u.shape[0], dtype=bool)
        kept[s.indices] = True
        if kept.all():
            return
        min_kept = np.abs(u[kept]).min()
        max_dropped = np.abs(u[~kept]).max()
        assert min_kept >= max_dropped

    def test_error_decreases_with_ratio(self, rng):
        u = rng.normal(size=500).astype(np.float32)
        errs = [compression_error(u, TopK().compress(u, r)) for r in (0.01, 0.1, 0.5, 1.0)]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] == 0.0


class TestRandomK:
    def test_unbiasedness(self):
        u = np.ones(200, dtype=np.float32)
        comp = RandomK(seed=0)
        dense_mean = np.mean(
            [comp.compress(u, 0.25).to_dense() for _ in range(400)], axis=0
        )
        # Per-trial, per-coordinate variance is p(1-p)(1/p)^2 = 3, so the
        # 400-trial mean has std ~0.087; allow ~4 sigma for the max over 200
        # coordinates and check the global mean tightly.
        assert float(dense_mean.mean()) == pytest.approx(1.0, abs=0.02)
        np.testing.assert_allclose(dense_mean, 1.0, atol=0.35)

    def test_biased_mode_no_scaling(self):
        u = np.full(100, 2.0, dtype=np.float32)
        s = RandomK(seed=0, unbiased=False).compress(u, 0.1)
        np.testing.assert_array_equal(s.values, 2.0)

    def test_determinism_per_seed(self):
        u = np.arange(50, dtype=np.float32)
        a = RandomK(seed=9).compress(u, 0.2)
        b = RandomK(seed=9).compress(u, 0.2)
        np.testing.assert_array_equal(a.indices, b.indices)


class TestThreshold:
    def test_keeps_above_threshold(self):
        u = np.array([0.5, 0.01, -0.7, 0.02], dtype=np.float32)
        s = ThresholdSparsifier(0.1).compress(u, 1.0)
        np.testing.assert_array_equal(s.indices, [0, 2])

    def test_ratio_caps_count(self):
        u = np.arange(1, 101, dtype=np.float32)
        s = ThresholdSparsifier(0.5).compress(u, 0.1)
        assert s.nnz == 10
        assert 100 in s.indices + 1  # keeps the largest

    def test_never_empty(self):
        u = np.full(10, 1e-9, dtype=np.float32)
        s = ThresholdSparsifier(1.0).compress(u, 0.5)
        assert s.nnz == 1

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            ThresholdSparsifier(0.0)
