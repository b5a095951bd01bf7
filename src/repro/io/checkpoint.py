"""Global-model checkpointing (npz: flat params + persistent buffers)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.fl.simulation import Simulation

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(sim: Simulation, path: str | Path) -> None:
    """Save the simulation's global model (params + BN buffers + round index)."""
    arrays = {
        "global_params": sim.global_params,
        "round_index": np.array(sim.round_index),
        "sim_clock": np.array(sim.sim_clock),
    }
    for i, state in enumerate(sim.global_states):
        arrays[f"state_{i}"] = state
    np.savez(path, **arrays)


def load_checkpoint(sim: Simulation, path: str | Path) -> None:
    """Restore a checkpoint into a simulation built from the same config."""
    data = np.load(path)
    params = data["global_params"]
    if params.shape != sim.global_params.shape:
        raise ValueError(
            f"checkpoint has {params.shape[0]} params, simulation expects "
            f"{sim.global_params.shape[0]} — config mismatch"
        )
    sim.global_params = params.astype(np.float32)
    n_states = sum(1 for k in data.files if k.startswith("state_"))
    if n_states != len(sim.global_states):
        raise ValueError(f"checkpoint has {n_states} buffers, simulation has {len(sim.global_states)}")
    for i in range(n_states):
        sim.global_states[i] = data[f"state_{i}"].copy()
    sim.round_index = int(data["round_index"])
    if "sim_clock" in data.files:  # absent in pre-scheduler checkpoints
        sim.sim_clock = float(data["sim_clock"])
        # Event-driven protocols keep their own clock cursors; resume them
        # at the restored time so virtual timestamps continue, not restart.
        if hasattr(sim, "now"):
            sim.now = sim.sim_clock
