"""Containers: Sequential composition and residual blocks."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import BatchNorm2d, Conv2d, Layer, Linear, Parameter, ReLU

__all__ = ["Sequential", "BasicBlock"]


class Sequential(Layer):
    """Apply layers in order; backward walks them in reverse.

    The outermost container of a model also owns its parameter storage: see
    :meth:`flat`. What a container derives from its layer list — the flat
    vectors, the ``input_grad=False`` walk, the persistent-buffer list — is
    computed once and dropped by :meth:`append` and by copying/pickling.
    """

    _flat: tuple[np.ndarray, np.ndarray] | None = None
    _train_walk: tuple[Layer | None, tuple[Layer, ...]] | None = None
    _states: tuple[np.ndarray, ...] | None = None

    def __init__(self, *layers: Layer):
        self.layers: list[Layer] = list(layers)

    def append(self, layer: Layer) -> "Sequential":
        """Add ``layer`` at the end (builder style)."""
        self.layers.append(layer)
        self._flat = self._train_walk = self._states = None
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
        # The walk and buffer list go with them: they hold the original's
        # layers and arrays.
        state = self.__dict__.copy()
        for name in ("_flat", "_train_walk", "_states"):
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
        if isinstance(head, (Linear, Conv2d, Sequential)):
            head.backward(grad_out, input_grad=False)
        elif head is not None:
            head.backward(grad_out)
        return None

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def state_arrays(self) -> list[np.ndarray]:
        """The persistent buffers, in layer order. Layers update them in
        place, so which arrays they are is worked out once."""
        if self._states is None:
            self._states = tuple(a for layer in self.layers for a in layer.state_arrays())
        return list(self._states)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, i: int) -> Layer:
        return self.layers[i]


class BasicBlock(Layer):
    """ResNet basic block: conv-bn-relu-conv-bn plus (projected) skip, then ReLU.

    Matches the ResNet-18 building block of He et al. (2016), which the paper
    evaluates with; here it is used in the scaled-down ``MiniResNet``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
        *,
        stride: int = 1,
        name: str = "block",
    ):
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, rng, stride=stride, padding=1, bias=False, name=f"{name}.conv1"
        )
        self.bn1 = BatchNorm2d(out_channels, name=f"{name}.bn1")
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, rng, stride=1, padding=1, bias=False, name=f"{name}.conv2")
        self.bn2 = BatchNorm2d(out_channels, name=f"{name}.bn2")
        self.downsample: Sequential | None = None
        if stride != 1 or in_channels != out_channels:
            self.downsample = Sequential(
                Conv2d(in_channels, out_channels, 1, rng, stride=stride, bias=False, name=f"{name}.proj"),
                BatchNorm2d(out_channels, name=f"{name}.proj_bn"),
            )
        self._out_mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        identity = x if self.downsample is None else self.downsample.forward(x, training=training)
        out = self.conv1.forward(x, training=training)
        out = self.bn1.forward(out, training=training)
        out = self.relu1.forward(out, training=training)
        out = self.conv2.forward(out, training=training)
        out = self.bn2.forward(out, training=training)
        out = out + identity
        if training:
            self._out_mask = out > 0
        return np.maximum(out, 0, out=out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out_mask is None:
            raise RuntimeError("backward called before a training forward pass")
        g = grad_out * self._out_mask
        self._out_mask = None
        g_main = self.bn2.backward(g)
        g_main = self.conv2.backward(g_main)
        g_main = self.relu1.backward(g_main)
        g_main = self.bn1.backward(g_main)
        g_main = self.conv1.backward(g_main)
        g_skip = g if self.downsample is None else self.downsample.backward(g)
        return g_main + g_skip

    def parameters(self) -> list[Parameter]:
        out = (
            self.conv1.parameters()
            + self.bn1.parameters()
            + self.conv2.parameters()
            + self.bn2.parameters()
        )
        if self.downsample is not None:
            out.extend(self.downsample.parameters())
        return out

    def state_arrays(self) -> list[np.ndarray]:
        out = self.bn1.state_arrays() + self.bn2.state_arrays()
        if self.downsample is not None:
            out.extend(self.downsample.state_arrays())
        return out
