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
from repro.core.arena import AggregationArena, arena_for

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

    The result lands in the ``arena``'s accumulator (valid until the next
    call on that arena); without one, in a fresh arena's.
    """
    arena = arena_for(updates, arena)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(updates),):
        raise ValueError(f"weights shape {weights.shape} != ({len(updates)},)")
    out = arena.accumulator()

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
    caller with an :class:`~repro.core.arena.AggregationArena` reuse it
    round after round. A caller that passes neither gets fresh buffers; the
    arithmetic is the same: ``fl((−s)·b + a) ≡ fl(a − s·b)``, rounded to
    float32 by ``copyto``.
    """
    if global_params.shape != aggregated_update.shape:
        raise ValueError(
            f"shape mismatch {global_params.shape} vs {aggregated_update.shape}"
        )
    if scratch is None:
        scratch = np.empty(global_params.shape, dtype=np.float64)
    elif scratch.shape != global_params.shape or scratch.dtype != np.float64:
        raise ValueError("scratch must be a float64 array of the params' shape")
    if out is None:
        out = np.empty(global_params.shape, dtype=np.float32)
    elif out.shape != global_params.shape:
        raise ValueError(f"out shape {out.shape} != {global_params.shape}")
    # fl(−s·b) = −fl(s·b) (sign-exact), then fl(−s·b + a) ≡ fl(a − s·b).
    np.multiply(aggregated_update, -float(server_step), out=scratch)
    scratch += global_params
    np.copyto(out, scratch, casting="unsafe")
    return out
