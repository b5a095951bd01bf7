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

__all__ = [
    "Parameter",
    "Layer",
    "Linear",
    "ReLU",
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
