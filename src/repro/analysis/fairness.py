"""Per-client fairness of the global model.

Under non-IID data a single global accuracy hides dispersion: the model may
serve majority-class clients well and minority clients poorly. These
helpers evaluate the global model on each client's *local* data
distribution and summarize the spread (Li et al.'s fair-FL metrics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.simulation import Simulation
from repro.nn.params import set_flat_params

__all__ = ["FairnessReport", "per_client_accuracy", "fairness_report"]


@dataclass(frozen=True)
class FairnessReport:
    """Spread statistics of per-client accuracies."""

    accuracies: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std(self) -> float:
        return float(self.accuracies.std())

    @property
    def worst(self) -> float:
        """Worst-served client (Rawlsian fairness)."""
        return float(self.accuracies.min())

    @property
    def best(self) -> float:
        return float(self.accuracies.max())

    def bottom_decile_mean(self) -> float:
        """Mean accuracy of the worst 10 % of clients (at least one)."""
        k = max(1, int(np.ceil(0.1 * self.accuracies.size)))
        return float(np.sort(self.accuracies)[:k].mean())


def per_client_accuracy(sim: Simulation, batch_size: int = 256) -> np.ndarray:
    """Accuracy of the current global model on each client's local shard."""
    set_flat_params(sim.model, sim.global_params)
    for live, saved in zip(sim.model.state_arrays(), sim.global_states):
        live[...] = saved
    out = np.zeros(len(sim.clients))
    for i, client in enumerate(sim.clients):
        ds = client.dataset
        correct = 0
        for start in range(0, len(ds), batch_size):
            x = ds.x[start : start + batch_size]
            y = ds.y[start : start + batch_size]
            logits = sim.model(x, training=False)
            correct += int((logits.argmax(axis=1) == y).sum())
        out[i] = correct / len(ds)
    return out


def fairness_report(sim: Simulation) -> FairnessReport:
    """Evaluate and summarize per-client accuracy of the global model."""
    return FairnessReport(accuracies=per_client_accuracy(sim))
