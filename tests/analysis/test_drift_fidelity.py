"""Tests for drift and fidelity diagnostics."""

import numpy as np
import pytest

from repro.analysis.drift import (
    cosine_similarity_matrix,
    gradient_diversity,
    mean_pairwise_cosine,
    update_norm_dispersion,
)
from repro.analysis.fidelity import aggregation_fidelity, relative_error, retained_mass
from repro.compression.sparsifiers import TopK
from repro.core.opwa import opwa_mask_from_updates
from repro.data.datasets import make_dataset
from repro.data.partition import dirichlet_partition, iid_partition
from repro.fl.client import Client
from repro.nn.models import build_mlp
from repro.nn.params import get_flat_params


class TestDriftMetrics:
    def test_identical_updates_cosine_one(self):
        u = np.ones(10)
        sim = cosine_similarity_matrix([u, u.copy(), u.copy()])
        np.testing.assert_allclose(sim, 1.0, atol=1e-12)
        assert mean_pairwise_cosine([u, u.copy()]) == pytest.approx(1.0)

    def test_orthogonal_updates_cosine_zero(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert mean_pairwise_cosine([a, b]) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_diversity_bounds(self):
        u = np.ones(5)
        # identical updates: diversity = 1/n
        assert gradient_diversity([u] * 4) == pytest.approx(0.25)
        # orthogonal equal-norm updates: diversity = 1
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert gradient_diversity([a, b]) == pytest.approx(1.0)

    def test_diversity_infinite_on_cancellation(self):
        a = np.array([1.0, -1.0])
        assert gradient_diversity([a, -a]) == float("inf")

    def test_norm_dispersion(self):
        same = [np.ones(4), np.ones(4)]
        assert update_norm_dispersion(same) == pytest.approx(0.0)
        different = [np.ones(4), 10 * np.ones(4)]
        assert update_norm_dispersion(different) > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_pairwise_cosine([np.ones(3)])
        with pytest.raises(ValueError):
            cosine_similarity_matrix([])


class TestDriftOnRealClients:
    def test_noniid_clients_less_aligned_than_iid(self):
        """The paper's premise, measured: Dirichlet(0.1) client updates are
        less mutually aligned than IID client updates."""
        ds = make_dataset("synth-cifar10", 1500, seed=0)
        model = build_mlp(192, 10, hidden=(32,), seed=0)
        w0 = get_flat_params(model)

        def client_updates(partition):
            updates = []
            for cid, ix in enumerate(partition.client_indices[:5]):
                c = Client(cid, ds.subset(ix), 64, np.random.default_rng(cid))
                updates.append(c.local_train(model, w0, lr=0.1, epochs=1).delta)
            return updates

        iid_cos = mean_pairwise_cosine(client_updates(iid_partition(ds.y, 5, seed=1)))
        skew_cos = mean_pairwise_cosine(
            client_updates(dirichlet_partition(ds.y, 5, 0.1, seed=1))
        )
        assert skew_cos < iid_cos


class TestFidelity:
    def test_retained_mass_full_at_cr1(self, rng):
        u = rng.normal(size=100).astype(np.float32)
        assert retained_mass(u, TopK().compress(u, 1.0)) == pytest.approx(1.0)

    def test_retained_mass_monotone_in_cr(self, rng):
        u = rng.normal(size=500).astype(np.float32)
        masses = [retained_mass(u, TopK().compress(u, r)) for r in (0.01, 0.1, 0.5)]
        assert masses == sorted(masses)

    def test_relative_error_zero_at_cr1(self, rng):
        u = rng.normal(size=64).astype(np.float32)
        assert relative_error(u, TopK().compress(u, 1.0)) == 0.0

    def test_opwa_mask_raises_aggregation_fidelity_for_disjoint_updates(self):
        """The OPWA rationale, quantified: with disjoint retained sets, the
        gamma = |S_t| mask makes the masked aggregate exactly proportional to
        the dense average restricted to retained coordinates, raising cosine
        fidelity vs the unmasked aggregate."""
        rng = np.random.default_rng(0)
        d = 400
        n = 4
        dense = []
        compressed = []
        topk = TopK()
        for i in range(n):
            u = np.zeros(d, dtype=np.float32)
            block = slice(i * 100, i * 100 + 100)  # disjoint supports
            u[block] = rng.normal(size=100)
            dense.append(u)
            compressed.append(topk.compress(u, 0.1))
        weights = np.full(n, 1.0 / n)
        mask = opwa_mask_from_updates(compressed, gamma=float(n))
        fid_unmasked = aggregation_fidelity(dense, compressed, weights)
        fid_masked = aggregation_fidelity(dense, compressed, weights, mask=mask)
        assert fid_masked >= fid_unmasked - 1e-9

    def test_aggregation_fidelity_perfect_for_cr1(self, rng):
        d = 50
        dense = [rng.normal(size=d).astype(np.float32) for _ in range(3)]
        compressed = [TopK().compress(u, 1.0) for u in dense]
        fid = aggregation_fidelity(dense, compressed, np.full(3, 1 / 3))
        assert fid == pytest.approx(1.0)

    def test_length_mismatch(self, rng):
        u = rng.normal(size=10).astype(np.float32)
        with pytest.raises(ValueError):
            aggregation_fidelity([u], [], np.array([]))
