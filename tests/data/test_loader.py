"""Tests for BatchLoader."""

import numpy as np
import pytest

from repro.data.datasets import make_dataset
from repro.data.loader import BatchLoader


@pytest.fixture
def ds():
    ds = make_dataset("synth-cifar10", 37, seed=0)
    ds.x.flags.writeable = ds.y.flags.writeable = False  # a loader only reads the corpus
    return ds


#: The whole 37-sample dataset as one shard.
ALL = np.arange(37)


class TestBatchLoader:
    def test_covers_all_samples(self, ds):
        loader = BatchLoader(ds, ALL, 8, rng=0)
        seen = sum(len(y) for _, y in loader)
        assert seen == 37

    def test_len_matches_iteration(self, ds):
        loader = BatchLoader(ds, ALL, 8, rng=0)
        assert len(list(loader)) == len(loader) == 5

    def test_shuffle_changes_order_across_epochs(self, ds):
        loader = BatchLoader(ds, ALL, 37, rng=0)
        (x1, y1), = list(loader)
        (x2, y2), = list(loader)
        assert not np.array_equal(y1, y2)

    def test_same_seed_same_order(self, ds):
        l1 = BatchLoader(ds, ALL, 8, rng=42)
        l2 = BatchLoader(ds, ALL, 8, rng=42)
        for (_, y1), (_, y2) in zip(l1, l2):
            np.testing.assert_array_equal(y1, y2)

    def test_rejects_bad_batch_size(self, ds):
        with pytest.raises(ValueError):
            BatchLoader(ds, ALL, 0)

    def test_a_shard_is_gathered_from_the_corpus_in_permuted_order(self, ds):
        """Repeated rows included, as a virtual shard draws with replacement."""
        shard = np.array([3, 3, 30, 7, 12])
        batches = list(BatchLoader(ds, shard, 2, rng=5))
        assert [len(y) for _, y in batches] == [2, 2, 1]
        rows = shard[np.random.default_rng(5).permutation(len(shard))]
        np.testing.assert_array_equal(np.concatenate([x for x, _ in batches]), ds.x[rows])
        np.testing.assert_array_equal(np.concatenate([y for _, y in batches]), ds.y[rows])
