"""Layers with explicit forward/backward passes.

Each :class:`Layer` caches what its backward pass needs during ``forward`` and
exposes trainable tensors as :class:`Parameter` objects. Gradients accumulate
into ``Parameter.grad``; a model's parameters and gradients are views of two
flat vectors (:meth:`repro.nn.sequential.Sequential.flat`) that the optimizer
steps as a whole.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init as initializers
from repro.nn.functional import col2im, conv_output_size, im2col

__all__ = [
    "Parameter",
    "Layer",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "GroupNorm",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
]


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)

    @property
    def size(self) -> int:
        """Number of scalar entries."""
        return self.data.size

    def zero_grad(self) -> None:
        """Reset the accumulated gradient in place."""
        self.grad[...] = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter({self.name}, shape={self.data.shape})"


class Layer:
    """Base class: ``forward`` caches, ``backward`` consumes the cache."""

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (empty by default)."""
        return []

    def state_arrays(self) -> list[np.ndarray]:
        """Non-trainable persistent state (e.g. BN running stats)."""
        return []

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)


class Linear(Layer):
    """Affine map ``y = x @ W + b`` for inputs of shape (N, in_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        bias: bool = True,
        name: str = "linear",
    ):
        self.weight = Parameter(f"{name}.weight", initializers.kaiming_uniform((in_features, out_features), rng))
        self.bias = Parameter(f"{name}.bias", initializers.zeros((out_features,))) if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._x = x
        y = x @ self.weight.data
        if self.bias is not None:
            y += self.bias.data
        return y

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        self.weight.grad += self._x.T @ grad_out
        if self.bias is not None:
            self.bias.grad += np.add.reduce(grad_out, axis=0)
        grad_in = grad_out @ self.weight.data.T if input_grad else None
        self._x = None
        return grad_in

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])


class Conv2d(Layer):
    """2-D convolution over NCHW inputs, implemented as im2col + GEMM."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        *,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: str = "conv",
    ):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        shape = (out_channels, in_channels, self.kernel_size, self.kernel_size)
        self.weight = Parameter(f"{name}.weight", initializers.kaiming_normal(shape, rng))
        self.bias = Parameter(f"{name}.bias", initializers.zeros((out_channels,))) if bias else None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n = x.shape[0]
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, oh, ow = im2col(x, k, k, s, p)
        w2d = self.weight.data.reshape(self.out_channels, -1).T  # (C*K*K, OC)
        out = cols @ w2d
        if self.bias is not None:
            out += self.bias.data
        if training:
            self._cols = cols
            self._x_shape = x.shape
        return out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        k, s, p = self.kernel_size, self.stride, self.padding
        n, oc, oh, ow = grad_out.shape
        g2d = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, oc)
        gw = self._cols.T @ g2d  # (C*K*K, OC)
        self.weight.grad += gw.T.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += np.add.reduce(g2d, axis=0)
        grad_in = None
        if input_grad:
            gcols = g2d @ self.weight.data.reshape(oc, -1)  # (N*OH*OW, C*K*K)
            grad_in = col2im(gcols, self._x_shape, k, k, s, p)
        self._cols = None
        self._x_shape = None
        return grad_in

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])


class BatchNorm2d(Layer):
    """Batch normalization over NCHW inputs with running statistics."""

    def __init__(self, num_features: int, *, momentum: float = 0.1, eps: float = 1e-5, name: str = "bn"):
        self.gamma = Parameter(f"{name}.gamma", initializers.ones((num_features,)))
        self.beta = Parameter(f"{name}.beta", initializers.zeros((num_features,)))
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = self.gamma.data[None, :, None, None] * x_hat + self.beta.data[None, :, None, None]
        if training:
            self._cache = (x_hat, inv_std)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_hat, inv_std = self._cache
        n, _, h, w = grad_out.shape
        m = n * h * w
        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        g = grad_out * self.gamma.data[None, :, None, None]
        # Standard batchnorm backward, fully vectorized per channel.
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_in = (inv_std[None, :, None, None] / m) * (m * g - sum_g - x_hat * sum_gx)
        self._cache = None
        return grad_in

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def state_arrays(self) -> list[np.ndarray]:
        return [self.running_mean, self.running_var]


class GroupNorm(Layer):
    """Group normalization over NCHW inputs (batch-size independent)."""

    def __init__(self, num_groups: int, num_channels: int, *, eps: float = 1e-5, name: str = "gn"):
        if num_channels % num_groups != 0:
            raise ValueError(f"num_channels {num_channels} not divisible by num_groups {num_groups}")
        self.num_groups = int(num_groups)
        self.num_channels = int(num_channels)
        self.eps = float(eps)
        self.gamma = Parameter(f"{name}.gamma", initializers.ones((num_channels,)))
        self.beta = Parameter(f"{name}.beta", initializers.zeros((num_channels,)))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        g = self.num_groups
        xg = x.reshape(n, g, c // g * h * w)
        mean = xg.mean(axis=2, keepdims=True)
        var = xg.var(axis=2, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = ((xg - mean) * inv_std).reshape(n, c, h, w)
        out = self.gamma.data[None, :, None, None] * x_hat + self.beta.data[None, :, None, None]
        if training:
            self._cache = (x_hat, inv_std, (n, c, h, w))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_hat, inv_std, (n, c, h, w) = self._cache
        g = self.num_groups
        m = c // g * h * w
        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        gy = (grad_out * self.gamma.data[None, :, None, None]).reshape(n, g, m)
        xh = x_hat.reshape(n, g, m)
        sum_g = gy.sum(axis=2, keepdims=True)
        sum_gx = (gy * xh).sum(axis=2, keepdims=True)
        grad_in = (inv_std / m) * (m * gy - sum_g - xh * sum_gx)
        self._cache = None
        return grad_in.reshape(n, c, h, w)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        grad_in = grad_out * self._mask
        self._mask = None
        return grad_in


class MaxPool2d(Layer):
    """Max pooling over NCHW inputs."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        oh = conv_output_size(h, k, s, 0)
        ow = conv_output_size(w, k, s, 0)
        sn, sc, sh, sw = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, oh, ow, k, k),
            strides=(sn, sc, sh * s, sw * s, sh, sw),
            writeable=False,
        )
        flat = windows.reshape(n, c, oh, ow, k * k)
        argmax = flat.argmax(axis=4)
        out = np.take_along_axis(flat, argmax[..., None], axis=4)[..., 0]
        if training:
            self._cache = (argmax, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        argmax, x_shape = self._cache
        n, c, h, w = x_shape
        k, s = self.kernel_size, self.stride
        oh, ow = argmax.shape[2], argmax.shape[3]
        grad_in = np.zeros(x_shape, dtype=grad_out.dtype)
        # Scatter gradients to the winning positions with one np.add.at call.
        ki, kj = np.divmod(argmax, k)
        ni, ci, oi, oj = np.indices(argmax.shape, sparse=False)
        rows = oi * s + ki
        cols = oj * s + kj
        np.add.at(grad_in, (ni, ci, rows, cols), grad_out)
        self._cache = None
        return grad_in


class GlobalAvgPool2d(Layer):
    """Collapse NCHW to (N, C) by spatial averaging."""

    def __init__(self):
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, h, w = self._x_shape
        grad_in = np.broadcast_to(grad_out[:, :, None, None] / (h * w), self._x_shape).copy()
        self._x_shape = None
        return grad_in


class Flatten(Layer):
    """Flatten all but the batch dimension."""

    def __init__(self):
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        grad_in = grad_out.reshape(self._x_shape)
        self._x_shape = None
        return grad_in
