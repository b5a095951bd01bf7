"""The Sequential container."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer, Linear, Parameter

__all__ = ["Sequential"]


class Sequential(Layer):
    """Apply layers in order; backward walks them in reverse.

    The outermost container of a model also owns its parameter storage: see
    :meth:`flat`. What a container derives from its layer list — the flat
    vectors and the ``input_grad=False`` walk — is computed once and dropped
    by :meth:`append` and by copying/pickling.
    """

    _flat: tuple[np.ndarray, np.ndarray] | None = None
    _train_walk: tuple[Layer | None, tuple[Layer, ...]] | None = None

    def __init__(self, *layers: Layer):
        self.layers: list[Layer] = list(layers)

    def append(self, layer: Layer) -> "Sequential":
        """Add ``layer`` at the end (builder style)."""
        self.layers.append(layer)
        self._flat = self._train_walk = None
        return self

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The model's ``(data, grad)`` float32 vectors, in ``parameters()`` order.

        On first use every ``Parameter.data``/``.grad`` is re-homed as a
        reshaped view into them, so loading, reading, zeroing and stepping the
        whole model are single vector operations. From then on nothing may
        rebind ``p.data``/``p.grad`` (write through ``p.data[...]``), and
        ``flat`` must not be called on a container nested inside this one.
        """
        if self._flat is None:
            params = self.parameters()
            data = np.empty(sum(p.size for p in params), dtype=np.float32)
            grad = np.empty_like(data)
            offset = 0
            for p in params:
                span, shape = slice(offset, offset + p.size), p.data.shape
                data[span] = p.data.ravel()
                grad[span] = p.grad.ravel()
                p.data = data[span].reshape(shape)
                p.grad = grad[span].reshape(shape)
                offset = span.stop
            self._flat = (data, grad)
        return self._flat

    def __getstate__(self) -> dict:
        # NumPy copies and pickles views as owners, so a copied or unpickled
        # model drops the vectors and re-homes its parameters on first use.
        # The walk goes with them: it holds the original's layers.
        state = self.__dict__.copy()
        for name in ("_flat", "_train_walk"):
            state.pop(name, None)
        return state

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate ``grad_out``; returns the gradient w.r.t. the input.

        ``input_grad=False`` (a training step, which consumes only parameter
        gradients) stops at the first trainable layer, skips that layer's own
        input gradient, and returns ``None``.
        """
        if input_grad:
            for layer in reversed(self.layers):
                grad_out = layer.backward(grad_out)
            return grad_out
        if self._train_walk is None:
            layers = self.layers
            first = next((i for i, layer in enumerate(layers) if layer.parameters()), len(layers))
            head = layers[first] if first < len(layers) else None
            self._train_walk = (head, tuple(reversed(layers[first + 1 :])))
        head, tail = self._train_walk
        for layer in tail:
            grad_out = layer.backward(grad_out)
        if isinstance(head, (Linear, Sequential)):
            head.backward(grad_out, input_grad=False)
        elif head is not None:
            head.backward(grad_out)
        return None

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, i: int) -> Layer:
        return self.layers[i]
