"""Tests for synthetic dataset generation."""

import numpy as np
import pytest

from repro.data.datasets import DATASET_SPECS, Dataset, SyntheticSpec, make_dataset, train_test_split
from repro.nn.losses import cross_entropy
from repro.nn.mlp import MLP
from repro.nn.optim import SGD


class TestSpecs:
    def test_registry_names(self):
        assert set(DATASET_SPECS) == {"synth-cifar10", "synth-cifar100", "synth-svhn"}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(name="x", num_classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(name="x", num_classes=3, class_priors=(0.5, 0.5))


class TestMakeDataset:
    def test_shapes_and_dtypes(self):
        ds = make_dataset("synth-cifar10", 100, seed=0)
        assert ds.x.shape == (100, 3, 8, 8)
        assert ds.x.dtype == np.float32
        assert ds.y.dtype == np.int64
        assert ds.num_classes == 10
        assert len(ds) == 100

    def test_determinism(self):
        a = make_dataset("synth-cifar10", 50, seed=7)
        b = make_dataset("synth-cifar10", 50, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_data(self):
        a = make_dataset("synth-cifar10", 50, seed=1)
        b = make_dataset("synth-cifar10", 50, seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_all_classes_present(self):
        ds = make_dataset("synth-cifar10", 2000, seed=0)
        assert set(np.unique(ds.y)) == set(range(10))

    def test_svhn_priors_skewed(self):
        ds = make_dataset("synth-svhn", 5000, seed=0)
        counts = np.bincount(ds.y, minlength=10)
        assert counts[1] > counts[9]  # class 1 most frequent, like real SVHN

    def test_cifar100_label_range(self):
        ds = make_dataset("synth-cifar100", 500, seed=0)
        assert ds.num_classes == 100
        assert ds.y.max() < 100

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            make_dataset("synth-cifar10", 0)

    def test_subset(self):
        ds = make_dataset("synth-cifar10", 20, seed=0)
        sub = ds.subset(np.array([0, 5, 7]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.y, ds.y[[0, 5, 7]])

    def test_mismatched_xy_rejected(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.zeros((3, 1, 2, 2), np.float32), np.zeros(4, np.int64), 2)


class TestLearnability:
    def test_classes_are_separable(self):
        """An MLP trained briefly must beat chance clearly — the datasets must
        carry signal, or every FL experiment degenerates to noise."""
        train, test = train_test_split("synth-cifar10", 1500, 400, seed=3)
        model = MLP(3 * 8 * 8, 10, hidden=(64,), seed=0)
        opt = SGD(model.data, model.grad, lr=0.1)
        xf = train.x.reshape(len(train), -1)
        rng = np.random.default_rng(0)
        for _ in range(60):
            idx = rng.choice(len(train), size=64, replace=False)
            _, g = cross_entropy(model(xf[idx]), train.y[idx])
            model.backward(g)
            opt.step()
        logits = model(test.x.reshape(len(test), -1), training=False)
        acc = float((logits.argmax(1) == test.y).mean())
        assert acc > 0.3, f"dataset not learnable: acc={acc}"

    def test_train_test_share_templates(self):
        """Same-class train/test images must be closer than cross-class."""
        train, test = train_test_split("synth-svhn", 500, 200, seed=1)
        # Compare class means: matching classes should correlate.
        for k in range(3):
            tr = train.x[train.y == k].mean(axis=0).ravel()
            te = test.x[test.y == k].mean(axis=0).ravel()
            other = test.x[test.y == (k + 1) % 10].mean(axis=0).ravel()
            same = np.dot(tr, te) / (np.linalg.norm(tr) * np.linalg.norm(te))
            diff = np.dot(tr, other) / (np.linalg.norm(tr) * np.linalg.norm(other))
            assert same > diff
