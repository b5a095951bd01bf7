"""Tests for Top-K sparsification and the update formats compressors emit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression.base import DenseUpdate, SparseUpdate, compression_error, retained_mass
from repro.compression.sparsifiers import TopK, k_from_ratio


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


class TestDenseUpdate:
    def test_roundtrip(self):
        s = DenseUpdate(dense_size=3, values=np.array([2.0, -1.0, 0.0], np.float32))
        np.testing.assert_array_equal(s.to_dense(), [2.0, -1.0, 0.0])

    def test_bits_follow_value_width(self):
        assert DenseUpdate(dense_size=100, values=np.zeros(100, np.float32)).bits == 100 * 32
        assert DenseUpdate(dense_size=100, values=np.zeros(100, np.float32), value_bits=8).bits == 800

    def test_validation(self):
        with pytest.raises(ValueError):
            DenseUpdate(dense_size=2, values=np.zeros(3, np.float32))

    def test_to_dense_is_a_copy(self):
        s = DenseUpdate(dense_size=2, values=np.array([1.0, 2.0], np.float32))
        s.to_dense()[:] = 0.0
        np.testing.assert_array_equal(s.to_dense(), [1.0, 2.0])


class TestTopK:
    def test_never_empty(self):
        u = np.full(10, 1e-9, dtype=np.float32)
        assert TopK().compress(u, 0.01).nnz == 1

    def test_preserves_signs(self, rng):
        u = rng.normal(size=50).astype(np.float32)
        s = TopK().compress(u, 0.3)
        np.testing.assert_array_equal(np.sign(s.values), np.sign(u[s.indices]))

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

    def test_retained_mass_full_at_cr1(self, rng):
        u = rng.normal(size=100).astype(np.float32)
        assert retained_mass(u, TopK().compress(u, 1.0)) == pytest.approx(1.0)

    def test_retained_mass_monotone_in_cr(self, rng):
        u = rng.normal(size=500).astype(np.float32)
        masses = [retained_mass(u, TopK().compress(u, r)) for r in (0.01, 0.1, 0.5)]
        assert masses == sorted(masses)

