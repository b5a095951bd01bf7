"""Federated-learning engine: Algorithm 1 with pluggable algorithms."""

from repro.fl.algorithms import Algorithm, RoundPlan, make_algorithm
from repro.fl.client import Client, LocalTrainResult
from repro.fl.config import ALGORITHMS, ExperimentConfig
from repro.fl.history import History, RoundRecord
from repro.fl.sampler import UniformSampler
from repro.fl.simulation import Simulation, run_experiment

__all__ = [
    "ExperimentConfig",
    "ALGORITHMS",
    "Client",
    "LocalTrainResult",
    "UniformSampler",
    "Algorithm",
    "RoundPlan",
    "make_algorithm",
    "History",
    "RoundRecord",
    "Simulation",
    "run_experiment",
]
