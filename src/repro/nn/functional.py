"""Stateless numerical building blocks for the numpy NN substrate.

Everything here is vectorized; convolutions go through im2col/col2im so the
inner loops are matrix multiplies (BLAS), per the HPC guidance of keeping hot
paths out of Python.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size {out} for input {size}, "
            f"kernel {kernel}, stride {stride}, pad {pad}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Unfold NCHW input into a (N*OH*OW, C*KH*KW) matrix of receptive fields.

    Returns ``(cols, oh, ow)``. The matrix layout pairs with a reshaped weight
    ``(C*KH*KW, OC)`` so the convolution is a single GEMM.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    # Strided view over sliding windows: shape (N, C, KH, KW, OH, OW).
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    cols = windows.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold a (N*OH*OW, C*KH*KW) matrix back into NCHW, summing overlaps.

    Adjoint of :func:`im2col`; used for convolution input gradients.
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    # Accumulate each kernel offset as one strided slice assignment — the loop
    # is over KH*KW (tiny), never over pixels.
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            out[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if pad > 0:
        out = out[:, :, pad:-pad, pad:-pad]
    return out
