"""Global-model checkpointing (npz: flat params, round index and clock)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.fl.simulation import Simulation

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(sim: Simulation, path: str | Path) -> None:
    """Save the simulation's global model (params + round index + clock)."""
    arrays = {
        "global_params": sim.global_params,
        "round_index": np.array(sim.round_index),
        "sim_clock": np.array(sim.sim_clock),
    }
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
    sim.round_index = int(data["round_index"])
    if "sim_clock" in data.files:  # absent in pre-scheduler checkpoints
        sim.sim_clock = float(data["sim_clock"])
        # Event-driven protocols keep their own clock cursors; resume them
        # at the restored time so virtual timestamps continue, not restart.
        if hasattr(sim, "now"):
            sim.now = sim.sim_clock
