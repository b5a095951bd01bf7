"""Tests for the aggregation rules (Alg. 1 lines 14–18)."""

import numpy as np
import pytest

from repro.compression.base import DenseUpdate, SparseUpdate
from repro.compression.sparsifiers import TopK
from repro.core.aggregation import apply_server_update, weighted_sparse_sum
from repro.core.arena import AggregationArena
from repro.core.opwa import opwa_mask_from_updates
from repro.robust.aggregators import robust_aggregate


def sparse(d, idx, vals):
    return SparseUpdate(
        dense_size=d,
        indices=np.asarray(idx, np.int64),
        values=np.asarray(vals, np.float32),
    )


class TestWeightedSparseSum:
    def test_matches_dense_reference(self, rng):
        d = 200
        updates = [TopK().compress(rng.normal(size=d).astype(np.float32), 0.2) for _ in range(4)]
        weights = rng.dirichlet(np.ones(4))
        got = weighted_sparse_sum(updates, weights)
        ref = sum(w * u.to_dense().astype(np.float64) for w, u in zip(weights, updates))
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_full_ratio_aggregate_equals_dense_average(self, rng):
        d = 50
        dense = [rng.normal(size=d).astype(np.float32) for _ in range(3)]
        weights = np.full(3, 1 / 3)
        got = weighted_sparse_sum([TopK().compress(u, 1.0) for u in dense], weights)
        ref = sum(w * u.astype(np.float64) for w, u in zip(weights, dense))
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_mask_applied_per_parameter(self):
        u1 = sparse(4, [0, 1], [1.0, 1.0])
        u2 = sparse(4, [1, 2], [1.0, 1.0])
        mask = opwa_mask_from_updates([u1, u2], gamma=10.0)
        got = robust_aggregate([u1, u2], np.array([0.5, 0.5]), mask=mask)
        # idx0: unique → 0.5·10 = 5; idx1: overlap 2 → 0.5+0.5 = 1; idx2: unique → 5.
        np.testing.assert_allclose(got, [5.0, 1.0, 5.0, 0.0])

    def test_dense_updates_supported(self, rng):
        d = 50
        u = DenseUpdate(dense_size=d, values=rng.normal(size=d).astype(np.float32))
        got = weighted_sparse_sum([u], np.array([2.0]))
        np.testing.assert_allclose(got, 2.0 * u.values, rtol=1e-6)

    def test_mixed_sparse_dense(self, rng):
        d = 30
        su = sparse(d, [0], [3.0])
        du = DenseUpdate(dense_size=d, values=np.ones(d, np.float32))
        got = weighted_sparse_sum([su, du], np.array([1.0, 1.0]))
        assert got[0] == pytest.approx(4.0)
        assert got[1] == pytest.approx(1.0)

    def test_out_buffer_reused(self, rng):
        d = 10
        u = sparse(d, [3], [1.0])
        arena = AggregationArena(d)
        buf = weighted_sparse_sum([sparse(d, [0], [7.0])], np.array([1.0]), arena=arena)
        got = weighted_sparse_sum([u], np.array([1.0]), arena=arena)
        assert got is buf
        assert buf[3] == 1.0 and buf[0] == 0.0

    @pytest.mark.parametrize("bad", [
        ([], np.array([])),
    ])
    def test_empty_rejected(self, bad):
        with pytest.raises(ValueError):
            weighted_sparse_sum(*bad)

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_sparse_sum([sparse(3, [0], [1.0])], np.array([1.0, 2.0]))

    def test_dense_size_mismatch(self):
        with pytest.raises(ValueError):
            weighted_sparse_sum(
                [sparse(3, [0], [1.0]), sparse(4, [0], [1.0])], np.array([1.0, 1.0])
            )


class TestApplyServerUpdate:
    def test_descent_direction(self):
        w = np.array([1.0, 2.0], dtype=np.float32)
        out = apply_server_update(w, np.array([0.5, -0.5]))
        np.testing.assert_allclose(out, [0.5, 2.5])

    def test_server_step_scales(self):
        w = np.zeros(2, dtype=np.float32)
        out = apply_server_update(w, np.array([1.0, 1.0]), server_step=0.1)
        np.testing.assert_allclose(out, [-0.1, -0.1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_server_update(np.zeros(2, np.float32), np.zeros(3))


class TestFedAvgRecovery:
    def test_dense_uncompressed_recovers_fedavg(self, rng):
        """With dense updates Δw_i = w_t − w_i, f-weights and step 1, the
        aggregate is exactly the FedAvg weighted model average Σ f_i w_i."""
        d = 64
        w_global = rng.normal(size=d).astype(np.float32)
        client_models = [rng.normal(size=d).astype(np.float32) for _ in range(5)]
        f = rng.dirichlet(np.ones(5))
        updates = [DenseUpdate(dense_size=d, values=w_global - wm) for wm in client_models]
        new = apply_server_update(w_global, weighted_sparse_sum(updates, f), server_step=1.0)
        expected = sum(fi * wm.astype(np.float64) for fi, wm in zip(f, client_models))
        np.testing.assert_allclose(new, expected, atol=1e-5)

    def test_gamma_n_mask_restores_disjoint_compressed_updates(self, rng):
        """The OPWA rationale with disjoint supports: every retained index is
        a singleton, so γ = |S_t| undoes the 1/|S_t| weight and the masked
        aggregate is the sum of the compressed updates, |S_t| times the
        unmasked one."""
        d, n = 400, 4
        compressed = []
        for i in range(n):
            u = np.zeros(d, dtype=np.float32)
            u[i * 100 : i * 100 + 100] = rng.normal(size=100)
            compressed.append(TopK().compress(u, 0.1))
        weights = np.full(n, 1.0 / n)
        unmasked = weighted_sparse_sum(compressed, weights).copy()
        mask = opwa_mask_from_updates(compressed, gamma=float(n))
        masked = robust_aggregate(compressed, weights, mask=mask)
        total = sum(c.to_dense().astype(np.float64) for c in compressed)
        np.testing.assert_allclose(masked, total, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(masked, n * unmasked, rtol=1e-12, atol=1e-12)

    def test_gamma_mask_amplifies_unique_updates(self, rng):
        """OPWA vs uniform: unique parameters move further under the mask."""
        d = 100
        w = np.zeros(d, dtype=np.float32)
        u1 = sparse(d, [0], [1.0])
        u2 = sparse(d, [1], [1.0])
        weights = np.array([0.5, 0.5])
        uniform = apply_server_update(w, weighted_sparse_sum([u1, u2], weights))
        mask = opwa_mask_from_updates([u1, u2], gamma=2.0)
        masked = apply_server_update(w, robust_aggregate([u1, u2], weights, mask=mask))
        assert abs(masked[0]) == pytest.approx(2 * abs(uniform[0]))
