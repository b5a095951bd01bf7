"""Tests for partitioning strategies and heterogeneity stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import Partition, dirichlet_partition, iid_partition, shard_partition
from repro.data.stats import (
    earth_movers_distance,
    heatmap_text,
    label_entropy,
    mean_emd_to_global,
    mean_label_entropy,
)


@pytest.fixture
def labels(rng):
    return rng.integers(0, 10, size=5000)


class TestPartitionInvariants:
    def test_no_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Partition([np.array([0, 1]), np.array([1, 2])], np.zeros(3, int), 1)

    @given(st.floats(0.05, 10.0), st.integers(2, 12))
    @settings(max_examples=15, deadline=None)
    def test_dirichlet_covers_all_samples_once(self, beta, num_clients):
        labels = np.random.default_rng(0).integers(0, 5, size=800)
        part = dirichlet_partition(labels, num_clients, beta, seed=1)
        allix = np.concatenate(part.client_indices)
        assert len(allix) == len(labels)
        assert len(np.unique(allix)) == len(labels)

    def test_sizes_sum(self, labels):
        part = dirichlet_partition(labels, 10, 0.5, seed=0)
        assert part.sizes().sum() == len(labels)

    def test_counts_matrix_totals(self, labels):
        part = dirichlet_partition(labels, 10, 0.5, seed=0)
        mat = part.counts_matrix()
        np.testing.assert_array_equal(mat.sum(axis=1), np.bincount(labels, minlength=10))

    def test_min_size_enforced(self, labels):
        part = dirichlet_partition(labels, 10, 0.1, seed=0, min_size=10)
        assert part.sizes().min() >= 10


class TestHeterogeneityOrdering:
    def test_lower_beta_more_skew(self, labels):
        """The paper's premise: beta=0.1 is more severe than beta=0.5 than IID."""
        p01 = dirichlet_partition(labels, 10, 0.1, seed=0)
        p05 = dirichlet_partition(labels, 10, 0.5, seed=0)
        piid = iid_partition(labels, 10, seed=0)
        assert mean_emd_to_global(p01) > mean_emd_to_global(p05) > mean_emd_to_global(piid)
        assert mean_label_entropy(p01) < mean_label_entropy(p05) < mean_label_entropy(piid)

    def test_iid_entropy_near_log_k(self, labels):
        part = iid_partition(labels, 5, seed=0)
        assert mean_label_entropy(part) == pytest.approx(np.log(10), abs=0.05)

    def test_shard_partition_limits_classes(self, rng):
        labels = rng.integers(0, 10, size=4000)
        part = shard_partition(labels, 10, shards_per_client=2, seed=0)
        classes_per_client = [(part.counts_matrix()[:, c] > 0).sum() for c in range(10)]
        assert max(classes_per_client) <= 4  # 2 shards span at most ~2-3 classes


class TestBaselinePartitions:
    def test_iid_balanced_sizes(self, labels):
        part = iid_partition(labels, 7, seed=0)
        sizes = part.sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_shard_covers_everything(self, labels):
        part = shard_partition(labels, 10, 2, seed=0)
        assert part.sizes().sum() == len(labels)

    @pytest.mark.parametrize("fn,kwargs", [
        (dirichlet_partition, dict(num_clients=0, beta=0.5)),
        (dirichlet_partition, dict(num_clients=5, beta=0.0)),
        (iid_partition, dict(num_clients=0)),
    ])
    def test_invalid_args(self, labels, fn, kwargs):
        with pytest.raises(ValueError):
            fn(labels, **kwargs)

    def test_determinism(self, labels):
        a = dirichlet_partition(labels, 10, 0.5, seed=3)
        b = dirichlet_partition(labels, 10, 0.5, seed=3)
        for x, y in zip(a.client_indices, b.client_indices):
            np.testing.assert_array_equal(x, y)


class TestStats:
    def test_emd_bounds(self):
        assert earth_movers_distance(np.array([1, 0]), np.array([0, 1])) == 1.0
        assert earth_movers_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_emd_shape_mismatch(self):
        with pytest.raises(ValueError):
            earth_movers_distance(np.ones(2), np.ones(3))

    def test_entropy_single_class_zero(self):
        labels = np.zeros(100, dtype=int)
        part = iid_partition(labels, 2, seed=0)
        np.testing.assert_allclose(label_entropy(part), 0.0, atol=1e-12)

    def test_heatmap_text_renders(self, labels):
        part = dirichlet_partition(labels, 4, 0.5, seed=0)
        text = heatmap_text(part)
        assert "class\\client" in text
        assert len(text.splitlines()) == 11
