"""Layers with explicit forward/backward passes.

Each :class:`Layer` caches what its backward pass needs during ``forward`` and
exposes trainable tensors as :class:`Parameter` objects. ``backward`` writes
(not adds to) each ``Parameter.grad``; a model's parameters and gradients are
views of two flat vectors (:meth:`repro.nn.sequential.Sequential.flat`) that
the optimizer steps as a whole. Training passes allocate nothing: outputs and
input gradients are row views of per-layer workspaces, valid until the layer's
next training pass; ``training=False`` returns fresh arrays.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init as initializers

__all__ = [
    "Parameter",
    "Layer",
    "Linear",
    "ReLU",
    "Flatten",
]


class Parameter:
    """A trainable tensor with its gradient."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)

    @property
    def size(self) -> int:
        """Number of scalar entries."""
        return self.data.size

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

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)

    def _workspace(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Rows ``[:shape[0]]`` of buffer ``name``, regrown only for a taller batch."""
        buf = self.__dict__.get(name)
        if buf is None or len(buf) < shape[0] or buf.shape[1:] != shape[1:] or buf.dtype != dtype:
            buf = self.__dict__[name] = np.empty(shape, dtype=dtype)
        return buf[: shape[0]]


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
        w, y = self.weight.data, None
        if training:
            self._x = x
            y = self._workspace("_y", (x.shape[0], w.shape[1]), np.result_type(x, w))
        y = np.matmul(x, w, out=y)
        if self.bias is not None:
            y += self.bias.data
        return y

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        # Written, not added: `g` and `0 + g` differ only in a zero's sign, which
        # moves no parameter unless it is −0.0 (no init or step produces one).
        x, w = self._x, self.weight.data
        if x is None:
            raise RuntimeError("backward called before a training forward pass")
        np.matmul(x.T, grad_out, out=self.weight.grad)
        if self.bias is not None:
            np.add.reduce(grad_out, axis=0, out=self.bias.grad)
        self._x = None
        if not input_grad:
            return None
        grad_in = self._workspace("_grad_in", x.shape, np.result_type(grad_out, w))
        return np.matmul(grad_out, w.T, out=grad_in)

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training:
            return np.maximum(x, 0)
        self._mask = np.greater(x, 0, out=self._workspace("_active", x.shape, np.bool_))
        return np.maximum(x, 0, out=self._workspace("_y", x.shape, x.dtype))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            raise RuntimeError("backward called before a training forward pass")
        grad_in = self._workspace("_grad_in", grad_out.shape, grad_out.dtype)
        return np.multiply(grad_out, mask, out=grad_in)


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
