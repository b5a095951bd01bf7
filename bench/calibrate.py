"""A fixed reference kernel that tells how fast the host is right now.

The box this benchmark was sized on is a shared 2-core VM whose speed drifts
by +-15 % over minutes with CPU time ~ wall (identical work: 1.35 s, then
0.90 s three minutes later), so raw rounds per second of two runs can differ
by more than any useful bound whatever the code does. The harness runs this
kernel before and after every episode and scales the episode's throughput by
``measured / NOMINAL_S``: it then reads as rounds per second *on a host that
runs one pass in* ``NOMINAL_S`` — this box on a quiet minute. The measurements
behind bench/README.md show what that buys.

One pass mixes what the workloads are made of — interpreter-bound Python, a
memory-bound selection and scatter over a wide vector, many small matrix
products — in roughly equal parts, and touches nothing of the program.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_S", "Reference"]

#: Seconds one pass takes on the sizing box when nothing else runs on it.
NOMINAL_S = 0.0286


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((64, 3072)).astype(np.float32)
        self._w = rng.standard_normal((3072, 10)).astype(np.float32)
        self._v = rng.standard_normal(400_000).astype(np.float32)
        self._idx = rng.integers(0, 400_000, size=200_000)

    def _pass(self) -> float:
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(60_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        for _ in range(5):
            np.argpartition(np.abs(self._v), 360_000)
            np.bincount(self._idx, minlength=400_000)
        for _ in range(120):
            self._x @ self._w
        return time.perf_counter() - t0

    def measure(self, passes: int = 6) -> float:
        """Seconds per pass: the fastest of ``passes`` (interference only
        ever slows a pass down)."""
        return min(self._pass() for _ in range(passes))
