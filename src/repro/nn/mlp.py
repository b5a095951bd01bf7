"""The model the experiments train: an MLP over flattened images.

The paper trains ResNet-18 on CIFAR-sized images; this repo trains this MLP
and prices uploads at paper scale through ``volume_override_bits`` (see
docs/ARCHITECTURE.md, "The training substrate").
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["MLP", "MODELS"]

#: The ``ExperimentConfig.model`` names: the one model there is.
MODELS = ("mlp",)


class MLP:
    """Flatten → (Linear → ReLU) per hidden width → Linear, stored flat.

    ``data`` holds every parameter as one float32 vector, layer by layer
    ``(W, b)`` with ``W`` of shape ``(in, out)``; ``grad`` has the same
    layout. ``layers[i]`` is ``(W, b, dW, db)``, views into the two vectors,
    so loading, reading and stepping the model are single vector operations.

    A training pass (``training=True``) allocates nothing: it writes into
    per-layer workspaces, keeps what :meth:`backward` needs, and returns a
    row view valid until the next training pass. ``training=False`` returns
    a fresh array.
    """

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        *,
        hidden: tuple[int, ...] = (128, 64),
        seed: int | np.random.Generator = 0,
    ):
        rng = as_generator(seed)
        dims = (input_dim, *hidden, num_classes)
        self.data = np.zeros(sum((i + 1) * o for i, o in zip(dims, dims[1:])), dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        self.layers: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        start = 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            mid, stop = start + fan_in * fan_out, start + (fan_in + 1) * fan_out
            w, dw = (v[start:mid].reshape(fan_in, fan_out) for v in (self.data, self.grad))
            bound = np.sqrt(6.0 / fan_in)  # He-uniform (ReLU gain); biases start at zero
            w[...] = rng.uniform(-bound, bound, size=w.shape).astype(np.float32)
            self.layers.append((w, self.data[mid:stop], dw, self.grad[mid:stop]))
            start = stop
        self._buffers: dict[tuple[str, int], np.ndarray] = {}
        self._tape: tuple[list[np.ndarray], list[np.ndarray]] | None = None

    def _workspace(self, key: tuple[str, int], rows: int, width: int, dtype=np.float32) -> np.ndarray:
        """Rows ``[:rows]`` of buffer ``key``, regrown only for a taller batch."""
        buf = self._buffers.get(key)
        if buf is None or len(buf) < rows:
            buf = self._buffers[key] = np.empty((rows, width), dtype=dtype)
        return buf[:rows]

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Logits of the float32 batch ``x`` (N, ...)."""
        x = x.reshape(x.shape[0], -1)
        rows, last = x.shape[0], len(self.layers) - 1
        inputs, masks = [], []
        for i, (w, b, _, _) in enumerate(self.layers):
            inputs.append(x)
            x = np.matmul(x, w, out=self._workspace(("y", i), rows, w.shape[1]) if training else None)
            x += b
            if i < last:
                if training:
                    masks.append(np.greater(x, 0, out=self._workspace(("active", i), rows, w.shape[1], np.bool_)))
                np.maximum(x, 0, out=x)
        if training:
            self._tape = (inputs, masks)
        return x

    def backward(self, grad_out: np.ndarray) -> None:
        """Write (not add) into ``grad`` the gradient of the last training
        pass, given ``grad_out`` = ∂L/∂logits. Nobody consumes ∂L/∂x, so the
        first layer's input gradient is never formed.

        Written, not added: ``g`` and ``0 + g`` differ only in a zero's sign,
        which moves no parameter unless it is −0.0 (no init or step makes one).
        """
        if self._tape is None:
            raise RuntimeError("backward called before a training forward pass")
        (inputs, masks), self._tape = self._tape, None
        for i in reversed(range(len(self.layers))):
            w, _, dw, db = self.layers[i]
            np.matmul(inputs[i].T, grad_out, out=dw)
            np.add.reduce(grad_out, axis=0, out=db)
            if i:
                grad_in = self._workspace(("grad_in", i), grad_out.shape[0], w.shape[0])
                grad_out = np.matmul(grad_out, w.T, out=grad_in)
                np.multiply(grad_out, masks[i - 1], out=grad_out)
