#!/usr/bin/env python
"""Extending the framework: plug a custom compressor into the FL loop.

The paper positions its framework as "a versatile foundation for future
cross-device, communication-efficient FL research". This example registers a
new compressor — Top-K applied per block rather than globally — and selects
it by name with the ``compressor`` config field, so the standard engine
builds it through the registry like any built-in. A registration declares the
compressor's wire size, from which the engine prices every upload. It runs beneath the
``topk`` algorithm (uniform ratios, f-weights) against global Top-K.

Run:  python examples/custom_compressor.py
"""

import numpy as np

from repro.compression.base import SparseUpdate
from repro.compression.registry import available_compressors, register_compressor
from repro.compression.sparsifiers import k_from_ratio
from repro.experiments import bench_config, format_table
from repro.fl import Simulation


class BlockTopK:
    """Top-K applied independently to fixed-size blocks of the update.

    Guarantees every region of the model keeps some updates — a cheap proxy
    for per-layer Top-K that avoids starving small layers.
    """

    name = "block_topk"

    def __init__(self, block_size: int = 2048):
        self.block_size = int(block_size)

    def compress(self, update: np.ndarray, ratio: float) -> SparseUpdate:
        update = np.ascontiguousarray(update, dtype=np.float32)
        d = update.shape[0]
        pieces = []
        for start in range(0, d, self.block_size):
            block = update[start : start + self.block_size]
            k = k_from_ratio(block.shape[0], ratio)
            if k >= block.shape[0]:
                local = np.arange(block.shape[0])
            else:
                local = np.argpartition(np.abs(block), block.shape[0] - k)[block.shape[0] - k :]
            pieces.append(np.sort(local) + start)
        idx = np.concatenate(pieces).astype(np.int64)
        return SparseUpdate(dense_size=d, indices=idx, values=update[idx])


def block_topk_wire(d: int, ratio: float, block_size: int = 2048) -> tuple[int, int, str]:
    """BlockTopK's wire size, declared so each upload is priced before it is
    trained: every block keeps its own ``k_from_ratio`` entries, each an
    (int32 index, float32 value) pair; a prefix of them is still a valid
    sparse update."""
    blocks = [min(block_size, d - start) for start in range(0, d, block_size)]
    return sum(k_from_ratio(b, ratio) for b in blocks), 64, "sparse"


def main() -> None:
    # Stateless and unseeded: every client shares one instance.
    register_compressor(
        "block_topk", lambda seed=0: BlockTopK(), wire=block_topk_wire, seeded=False, stateful=False
    )
    print("registered compressors:", ", ".join(available_compressors()))

    rows = []
    for label, compressor in [("global topk", None), ("block topk", "block_topk")]:
        cfg = bench_config(
            "cifar10", "topk", beta=0.1, compression_ratio=0.02, rounds=25, compressor=compressor
        )
        with Simulation(cfg) as sim:
            h = sim.run()
        rows.append([label, f"{h.final_accuracy():.4f}", f"{h.time.actual_total:.1f}s"])
    print(format_table(["compressor", "final accuracy", "comm time"], rows))


if __name__ == "__main__":
    main()
