"""Tests for the fused sparse-aggregation arena and the in-place step path.

Every aggregation runs through an arena (a caller without one gets a fresh
one) and every server step through ``out``/``scratch`` buffers, so the
references here live in the tests: the frozen allocating sum of
``test_sparse_pipeline_exact``, the order statistics over a freshly densified
matrix, and the literal ``(w.astype(f64) − s·g).astype(f32)`` step. Reused
buffers must reproduce them **bit for bit** — the arena may only change who
owns the memory, never a single IEEE operation.
"""

import numpy as np
import pytest

from repro.compression.base import DenseUpdate
from repro.compression.sparsifiers import TopK
from repro.core.aggregation import apply_server_update, weighted_sparse_sum
from repro.core.arena import AggregationArena
from repro.core.opwa import opwa_mask_from_updates
from repro.core.server_opt import make_server_optimizer
from repro.robust.aggregators import robust_aggregate
from tests.core.test_sparse_pipeline_exact import ref_weighted_sparse_sum


def coordinate_median(updates, **kw):
    return robust_aggregate(updates, None, aggregator="median", **kw)


def trimmed_mean(updates, beta, **kw):
    return robust_aggregate(updates, None, aggregator="trimmed_mean", trim_beta=beta, **kw)


def ref_step(w, g, s):
    """Algorithm 1's descent ``w − s·g`` in float64, rounded to float32."""
    return (w.astype(np.float64) - s * g).astype(np.float32)


def ref_rows(updates):
    """The cohort densified into a fresh float64 matrix."""
    rows = np.zeros((len(updates), updates[0].dense_size))
    for i, u in enumerate(updates):
        rows[i] = u.to_dense()
    return rows


def ref_median(updates):
    return np.median(ref_rows(updates), axis=0)


def ref_trimmed_mean(updates, beta=0.2):
    n = len(updates)
    k = int(beta * n)
    return np.mean(np.sort(ref_rows(updates), axis=0)[k : n - k], axis=0)


def topk_updates(rng, d, n, ratio):
    return [
        TopK().compress(rng.normal(size=d).astype(np.float32), ratio)
        for _ in range(n)
    ]


class TestArenaSparseSum:
    def test_bit_identical_to_allocating_path(self, rng):
        d = 300
        updates = topk_updates(rng, d, 5, 0.2)
        weights = rng.dirichlet(np.ones(5))
        arena = AggregationArena(d)
        got = weighted_sparse_sum(updates, weights, arena=arena)
        ref = ref_weighted_sparse_sum(updates, weights)
        np.testing.assert_array_equal(got, ref)

    def test_bit_identical_with_mask(self, rng):
        d = 120
        updates = topk_updates(rng, d, 4, 0.3)
        weights = rng.dirichlet(np.ones(4))
        mask = opwa_mask_from_updates(updates, gamma=7.0)
        arena = AggregationArena(d)
        got = robust_aggregate(updates, weights, mask=mask, arena=arena)
        ref = ref_weighted_sparse_sum(updates, weights, mask=mask)
        np.testing.assert_array_equal(got, ref)

    def test_reuse_across_calls_bit_identical(self, rng):
        """Stale buffer contents from a prior round never leak into the next."""
        d = 80
        arena = AggregationArena(d)
        for n in (6, 3, 6):  # shrink then regrow the cohort
            updates = topk_updates(rng, d, n, 0.25)
            weights = rng.dirichlet(np.ones(n))
            got = weighted_sparse_sum(updates, weights, arena=arena).copy()
            ref = ref_weighted_sparse_sum(updates, weights)
            np.testing.assert_array_equal(got, ref)

    def test_accumulator_is_arena_owned(self, rng):
        d = 40
        arena = AggregationArena(d)
        updates = topk_updates(rng, d, 2, 0.5)
        out = weighted_sparse_sum(updates, np.array([0.5, 0.5]), arena=arena)
        assert out is arena._acc

    def test_mixed_dense_sparse_with_arena(self, rng):
        d = 50
        su = TopK().compress(rng.normal(size=d).astype(np.float32), 0.2)
        du = DenseUpdate(dense_size=d, values=np.ones(d, np.float32))
        arena = AggregationArena(d)
        got = weighted_sparse_sum([su, du], np.array([1.0, 2.0]), arena=arena)
        ref = ref_weighted_sparse_sum([su, du], np.array([1.0, 2.0]))
        np.testing.assert_array_equal(got, ref)

    def test_arena_dense_size_mismatch_rejected(self, rng):
        updates = topk_updates(rng, 20, 1, 0.5)
        with pytest.raises(ValueError, match="dense_size"):
            weighted_sparse_sum(updates, np.array([1.0]), arena=AggregationArena(21))


class TestArenaBuffers:
    def test_nbytes_reports_growth(self):
        arena = AggregationArena(10)
        before = arena.nbytes()
        arena.rows(64)
        assert arena.nbytes() > before

    def test_robust_rounds_reuse_the_rows_and_the_accumulator(self, rng):
        """The order-statistic rules densify into the arena's grow-only row
        matrix and reduce into its accumulator: after the first round a
        robust round allocates no ``(n, d)`` matrix, and the values are the
        order statistics of a freshly densified matrix bit for bit."""
        d = 60
        arena = AggregationArena(d)
        updates = topk_updates(rng, d, 6, 0.2)
        first = trimmed_mean(updates, 0.2, arena=arena)
        rows, held = arena._rows, arena.nbytes()
        rules = (
            (coordinate_median, ref_median),
            (lambda u, **kw: trimmed_mean(u, 0.2, **kw), ref_trimmed_mean),
        )
        for rule, ref in rules:
            got = rule(updates[:4], arena=arena)  # a smaller cohort: a view, not a new matrix
            assert got is first is arena._acc
            assert arena._rows is rows and arena.nbytes() == held
            np.testing.assert_array_equal(got, ref(updates[:4]))
            np.testing.assert_array_equal(rule(updates[:4]), ref(updates[:4]))  # a fresh arena
        with pytest.raises(ValueError, match="arena dense_size"):
            coordinate_median(updates, arena=AggregationArena(d + 1))


class TestInPlaceServerStep:
    """Satellite (a): the ``out=``/``scratch=`` step path is exact."""

    def test_out_and_scratch_bit_identical(self, rng):
        w = rng.normal(size=500).astype(np.float32)
        g = rng.normal(size=500)
        ref = ref_step(w, g, 0.7)
        scratch = np.empty(500, dtype=np.float64)
        out = np.empty(500, dtype=np.float32)
        got = apply_server_update(w, g, 0.7, out=out, scratch=scratch)
        assert got is out
        np.testing.assert_array_equal(got, ref)

    def test_out_aliasing_params_is_exact(self, rng):
        w = rng.normal(size=200).astype(np.float32)
        g = rng.normal(size=200)
        ref = ref_step(w, g, 1.0)
        got = apply_server_update(w, g, 1.0, out=w, scratch=np.empty(200, np.float64))
        assert got is w
        np.testing.assert_array_equal(w, ref)

    def test_scratch_only_path_exact(self, rng):
        w = rng.normal(size=100).astype(np.float32)
        g = rng.normal(size=100)
        ref = ref_step(w, g, 0.3)
        got = apply_server_update(w, g, 0.3, scratch=np.empty(100, np.float64))
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(apply_server_update(w, g, 0.3), ref)  # no buffers

    def test_bad_scratch_rejected(self, rng):
        w = np.ones(4, np.float32)
        with pytest.raises(ValueError, match="scratch"):
            apply_server_update(w, np.ones(4), scratch=np.empty(4, np.float32))
        with pytest.raises(ValueError, match="scratch"):
            apply_server_update(w, np.ones(4), scratch=np.empty(5, np.float64))

    def test_bad_out_rejected(self, rng):
        w = np.ones(4, np.float32)
        with pytest.raises(ValueError, match="out"):
            apply_server_update(
                w, np.ones(4), out=np.empty(5, np.float32),
                scratch=np.empty(4, np.float64),
            )

    @pytest.mark.parametrize("name", ["sgd", "adam"])
    def test_server_optimizers_out_path_exact(self, rng, name):
        """Three stateful steps (momentum / Adam moments) through ``out=``
        equal the optimizers' update rules written out literally."""
        d = 64
        kwargs = {"lr": 0.5, "momentum": 0.4} if name == "sgd" else {"lr": 0.5}
        opt = make_server_optimizer(name, **kwargs)
        w = rng.normal(size=d).astype(np.float32)
        ref = w.copy()
        scratch = np.empty(d, dtype=np.float64)
        v = m = np.zeros(d)
        for t in range(1, 4):
            g = rng.normal(size=d)
            w = opt.step(w, g, out=w, scratch=scratch)
            if name == "sgd":
                v = v * 0.4 + g
                ref = ref_step(ref, v, 0.5)
            else:  # ServerAdam's defaults: beta1 0.9, beta2 0.99, eps 1e-3
                m = 0.9 * m + (1 - 0.9) * g
                v = 0.99 * v + (1 - 0.99) * g * g
                m_hat = m / (1 - 0.9**t)
                v_hat = v / (1 - 0.99**t)
                ref = ref_step(ref, 0.5 * m_hat / (np.sqrt(v_hat) + 1e-3), 1.0)
            np.testing.assert_array_equal(w, ref)
