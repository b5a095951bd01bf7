"""Error-feedback compression (EF-TopK baseline, Sec. 5.1).

Error feedback (Karimireddy et al.; Li & Li 2023 in the paper's references)
keeps the residual ``e = u_corrected − compress(u_corrected)`` locally and
adds it to the next round's update, so information dropped by a biased
compressor is eventually transmitted. Wrapping :class:`~repro.compression.sparsifiers.TopK`
yields the paper's EFTOPK baseline.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedUpdate, Compressor, SparseUpdate

__all__ = ["ErrorFeedback"]


class ErrorFeedback:
    """Stateful per-client wrapper adding residual memory to any compressor.

    The residual buffer is updated **in place**: the memory array doubles as
    the corrected update (``memory += update``), and after compression the
    transmitted values are subtracted back out — sparse outputs touch only
    their ``nnz`` entries, so no dense reconstruction and no fresh
    allocations on the hot path. Bit-identical to the historical
    ``corrected − compress(corrected).to_dense()`` formulation
    (``c − 0 = c`` exactly at untouched entries).
    """

    def __init__(self, inner: Compressor):
        self.inner = inner
        self._memory: np.ndarray | None = None

    @property
    def name(self) -> str:
        inner_name = getattr(self.inner, "name", type(self.inner).__name__)
        return f"ef_{inner_name}"

    @property
    def memory(self) -> np.ndarray | None:
        """Current residual (None before the first compression)."""
        return self._memory

    def compress(self, update: np.ndarray, ratio: float) -> CompressedUpdate:
        update = np.ascontiguousarray(update, dtype=np.float32)
        if self._memory is None:
            self._memory = np.zeros_like(update)
        elif self._memory.shape != update.shape:
            raise ValueError(
                f"update size changed: memory {self._memory.shape} vs update {update.shape}"
            )
        self._memory += update
        corrected = self._memory
        compressed = self.inner.compress(corrected, ratio)
        # Residual = what the compressor failed to transmit this round.
        if isinstance(compressed, SparseUpdate):
            # Sparse indices are unique, so the scatter-subtract hits each
            # retained entry once: fl(c − v) there, c (exactly) elsewhere.
            self._memory[compressed.indices] -= compressed.values
        else:
            self._memory -= compressed.to_dense()
        return compressed
