"""Unit and property tests for repro.nn.functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import (
    col2im,
    conv_output_size,
    im2col,
)


class TestConvOutputSize:
    @pytest.mark.parametrize(
        "size,k,s,p,expected",
        [(8, 3, 1, 1, 8), (8, 3, 2, 1, 4), (8, 2, 2, 0, 4), (5, 5, 1, 0, 1)],
    )
    def test_known_values(self, size, k, s, p, expected):
        assert conv_output_size(size, k, s, p) == expected

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        cols, oh, ow = im2col(x, 3, 3, 1, 1)
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2 * 8 * 8, 3 * 3 * 3)

    def test_identity_kernel_1x1(self, rng):
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        cols, oh, ow = im2col(x, 1, 1, 1, 0)
        np.testing.assert_allclose(
            cols.reshape(4, 4, 2).transpose(2, 0, 1), x[0], atol=0
        )

    def test_matches_naive_extraction(self, rng):
        x = rng.normal(size=(1, 1, 5, 5)).astype(np.float32)
        cols, oh, ow = im2col(x, 3, 3, 2, 0)
        assert (oh, ow) == (2, 2)
        naive = np.stack(
            [x[0, 0, i * 2 : i * 2 + 3, j * 2 : j * 2 + 3].ravel() for i in range(2) for j in range(2)]
        )
        np.testing.assert_allclose(cols, naive)

    def test_col2im_is_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, oh, ow = im2col(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        back = col2im(y, x.shape, 3, 3, 2, 1)
        rhs = float(np.sum(x * back))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_shapes(self, k, s, p):
        size = 6
        if size + 2 * p < k:
            return
        x = np.random.default_rng(0).normal(size=(1, 2, size, size))
        cols, oh, ow = im2col(x, k, k, s, p)
        out = col2im(cols, x.shape, k, k, s, p)
        assert out.shape == x.shape
