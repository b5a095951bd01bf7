"""Server-side aggregation rules — Algorithm 1 lines 14–18.

All three rules consume the clients' (sparse) updates ``Δw_i = w_t − w_i``
and produce the next global model:

- **FedAvg** (line 14):     ``w ← w − η_s · Σ f_i · Δw_i``
- **BCRS** (line 16):       ``w ← w − η_s · Σ p'_i · Δw_i``
- **BCRS+OPWA** (line 18):  ``w ← w − η_s · M ⊙ Σ p'_i · Δw_i``

where ``η_s`` is the server step (1.0 recovers exact FedAvg for dense
updates), ``p'_i`` comes from Eq. 6 and ``M`` from Algorithm 3. Eq. 7 is linear
in ``M``, so under every rule ``M`` scales the aggregate once, in
:func:`~repro.robust.aggregators.robust_aggregate`; at ``D = 1`` and ``γ ≥ 1``
bit-identical to masking each update (an enlarged index has one contributor).
Sparse updates scatter-add straight into one float64 accumulator: one C-level
pass per client, no concatenation, no dense temporaries.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedUpdate, SparseUpdate
from repro.core.arena import AggregationArena

__all__ = ["weighted_sparse_sum", "apply_server_update"]


def weighted_sparse_sum(
    updates: list[CompressedUpdate],
    weights: np.ndarray,
    *,
    arena: AggregationArena | None = None,
) -> np.ndarray:
    """Compute ``Σ_i weights[i] · dense(updates[i])``.

    Each sparse update's weighted float64 values are ``np.add.at``-ed into the
    accumulator, so every index sums its contributions in client order; dense
    updates follow as AXPYs.

    The result lands in the ``arena``'s accumulator if one is given (valid
    until the next arena-backed call), else in a fresh vector; the
    arithmetic is the same in both.
    """
    if not updates:
        raise ValueError("need at least one update")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(updates),):
        raise ValueError(f"weights shape {weights.shape} != ({len(updates)},)")
    d = updates[0].dense_size
    for u in updates:
        if u.dense_size != d:
            raise ValueError("updates disagree on dense_size")

    if arena is not None:
        if arena.dense_size != d:
            raise ValueError(
                f"arena dense_size {arena.dense_size} != updates' {d}"
            )
        out = arena.accumulator()
    else:
        out = np.zeros(d, dtype=np.float64)

    for w, u in zip(weights, updates):
        if isinstance(u, SparseUpdate):
            # All-float64 operands keep np.add.at on its indexed fast loop;
            # a dtype mismatch drops it to a generic one ~25x slower.
            np.add.at(out, u.indices, np.multiply(w, u.values, dtype=np.float64))
    for w, u in zip(weights, updates):
        if not isinstance(u, SparseUpdate):
            out += w * u.to_dense().astype(np.float64)
    return out


def apply_server_update(
    global_params: np.ndarray,
    aggregated_update: np.ndarray,
    server_step: float = 1.0,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``w_{t+1} = w_t − η_s · Σ(...)`` — the descent step of lines 14/16/18.

    ``out`` (float32, params-shaped) receives the stepped parameters in
    place — ``out=global_params`` is legal, reads complete before the write.
    ``scratch`` (float64, params-shaped) is the working vector, letting a
    caller with an :class:`~repro.core.arena.AggregationArena` avoid the
    float64 temporary on the widest array in the system. Either keyword
    selects the buffered path; results are bit-identical to the copying
    path (``a − s·b ≡ (−s)·b + a`` and ``copyto`` rounds exactly like
    ``astype`` — the exactness test in ``tests/core/test_arena.py`` pins
    this).
    """
    if global_params.shape != aggregated_update.shape:
        raise ValueError(
            f"shape mismatch {global_params.shape} vs {aggregated_update.shape}"
        )
    if out is None and scratch is None:
        return (
            global_params.astype(np.float64) - server_step * aggregated_update
        ).astype(np.float32)
    if scratch is None:
        scratch = np.empty(global_params.shape, dtype=np.float64)
    elif scratch.shape != global_params.shape or scratch.dtype != np.float64:
        raise ValueError("scratch must be a float64 array of the params' shape")
    # fl(−s·b) = −fl(s·b) (sign-exact), then fl(−s·b + a) ≡ fl(a − s·b).
    np.multiply(aggregated_update, -float(server_step), out=scratch)
    scratch += global_params
    if out is None:
        return scratch.astype(np.float32)
    if out.shape != global_params.shape:
        raise ValueError(f"out shape {out.shape} != {global_params.shape}")
    np.copyto(out, scratch, casting="unsafe")
    return out
