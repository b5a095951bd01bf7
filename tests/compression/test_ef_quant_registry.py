"""Tests for error feedback, quantizers and the registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import DenseUpdate, compression_error
from repro.compression.ef import ErrorFeedback
from repro.compression.quantization import QSGDQuantizer
from repro.compression.registry import available_compressors, make_compressor
from repro.compression.sparsifiers import TopK


class TestErrorFeedback:
    def test_residual_is_dropped_mass(self, rng):
        u = rng.normal(size=100).astype(np.float32)
        ef = ErrorFeedback(TopK())
        s = ef.compress(u, 0.1)
        np.testing.assert_allclose(ef.memory, u - s.to_dense(), atol=1e-6)

    def test_residual_retransmitted(self):
        """Mass dropped in round 1 must appear in round 2's transmission."""
        ef = ErrorFeedback(TopK())
        u1 = np.array([10.0, 1.0, 0.0, 0.0], dtype=np.float32)
        s1 = ef.compress(u1, 0.25)  # keeps only the 10
        np.testing.assert_array_equal(s1.indices, [0])
        u2 = np.zeros(4, dtype=np.float32)
        s2 = ef.compress(u2, 0.25)  # nothing new: must flush the residual 1.0
        np.testing.assert_array_equal(s2.indices, [1])
        assert s2.values[0] == pytest.approx(1.0)

    def test_total_mass_conserved_over_rounds(self, rng):
        """sum(transmitted) + memory == sum(updates): EF loses nothing."""
        ef = ErrorFeedback(TopK())
        total_sent = np.zeros(50, dtype=np.float64)
        total_updates = np.zeros(50, dtype=np.float64)
        for _ in range(10):
            u = rng.normal(size=50).astype(np.float32)
            total_updates += u
            total_sent += ef.compress(u, 0.1).to_dense()
        np.testing.assert_allclose(total_sent + ef.memory, total_updates, atol=1e-4)

    def test_size_change_rejected(self, rng):
        ef = ErrorFeedback(TopK())
        ef.compress(rng.normal(size=10).astype(np.float32), 0.5)
        with pytest.raises(ValueError):
            ef.compress(rng.normal(size=11).astype(np.float32), 0.5)

    def test_name(self):
        assert ErrorFeedback(TopK()).name == "ef_topk"
        assert ErrorFeedback(QSGDQuantizer()).name == "ef_qsgd"

    def test_dense_inner_conserves_mass(self, rng):
        """Over a quantiser's dense output the residual is ``corrected − sent``."""
        ef = ErrorFeedback(QSGDQuantizer(bits=2, seed=3))
        total_sent = np.zeros(50, dtype=np.float64)
        total_updates = np.zeros(50, dtype=np.float64)
        for _ in range(10):
            u = rng.normal(size=50).astype(np.float32)
            total_updates += u
            out = ef.compress(u, 1.0)
            assert isinstance(out, DenseUpdate)
            total_sent += out.to_dense()
        np.testing.assert_allclose(total_sent + ef.memory, total_updates, atol=1e-4)


class TestQuantizers:
    def test_qsgd_unbiased(self):
        u = np.full(500, 0.3, dtype=np.float32)
        q = QSGDQuantizer(bits=2, seed=0)
        mean = np.mean([q.compress(u).to_dense() for _ in range(300)], axis=0)
        np.testing.assert_allclose(mean, 0.3, atol=0.02)

    def test_qsgd_bits_accounting(self, rng):
        u = rng.normal(size=100).astype(np.float32)
        out = QSGDQuantizer(bits=8, seed=0).compress(u)
        assert out.bits == 100 * 8

    def test_more_bits_less_error(self, rng):
        u = rng.normal(size=1000).astype(np.float32)
        errs = [
            compression_error(u, QSGDQuantizer(bits=b, seed=0).compress(u)) for b in (1, 2, 4, 8, 16)
        ]
        assert errs == sorted(errs, reverse=True)

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_qsgd_idempotent_on_grid(self, bits):
        """Values already on the grid leave no rounding to draw: every seed agrees."""
        levels = (1 << bits) - 1
        grid = np.array([0, 1, levels // 2, levels, -levels, -1], np.float32)
        u = (grid / np.float32(levels) * np.float32(0.75)).astype(np.float32)
        outs = [QSGDQuantizer(bits=bits, seed=s).compress(u).to_dense() for s in range(5)]
        for out in outs:
            np.testing.assert_array_equal(out, outs[0])
        np.testing.assert_allclose(outs[0], u, atol=1e-7)

    def test_qsgd_determinism_per_seed(self, rng):
        u = rng.normal(size=200).astype(np.float32)
        a = QSGDQuantizer(bits=2, seed=9).compress(u).to_dense()
        b = QSGDQuantizer(bits=2, seed=9).compress(u).to_dense()
        c = QSGDQuantizer(bits=2, seed=10).compress(u).to_dense()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_qsgd_keeps_the_largest_magnitude(self, rng):
        """The max-|v| entry sits on the top level and is sent as-is."""
        u = rng.normal(size=100).astype(np.float32)
        top = int(np.argmax(np.abs(u)))
        out = QSGDQuantizer(bits=2, seed=0).compress(u).to_dense()
        assert out[top] == pytest.approx(u[top], rel=1e-6)

    def test_zero_vector_passthrough(self):
        u = np.zeros(10, dtype=np.float32)
        np.testing.assert_array_equal(QSGDQuantizer(bits=4, seed=0).compress(u).to_dense(), u)

    @pytest.mark.parametrize("bits", [0, 33])
    def test_bad_bits(self, bits):
        with pytest.raises(ValueError):
            QSGDQuantizer(bits=bits)

    @given(st.integers(1, 16))
    @settings(max_examples=16, deadline=None)
    def test_quantized_values_bounded_by_input(self, bits):
        u = np.random.default_rng(0).normal(size=64).astype(np.float32)
        out = QSGDQuantizer(bits=bits, seed=0).compress(u).to_dense()
        assert np.abs(out).max() <= np.abs(u).max() * (1 + 1e-6)


class TestRegistry:
    def test_builtin_names(self):
        assert available_compressors() == ["ef_topk", "qsgd8", "topk"]

    def test_instances_are_fresh(self, rng):
        """Two ef_topk instances must not share residual state."""
        a = make_compressor("ef_topk")
        b = make_compressor("ef_topk")
        u = rng.normal(size=20).astype(np.float32)
        a.compress(u, 0.5)
        assert b.memory is None

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_compressor("bogus")

    def test_all_registered_compress(self, rng):
        u = rng.normal(size=64).astype(np.float32)
        for name in available_compressors():
            comp = make_compressor(name, seed=1)
            out = comp.compress(u, 0.25)
            assert out.to_dense().shape == (64,)
            assert out.bits > 0
