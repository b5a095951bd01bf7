"""Experiment presets mirroring the paper's configurations.

``paper_config`` reproduces the Sec. 5.1 setting at the scaled-down geometry
of docs/ARCHITECTURE.md (synthetic datasets, the MLP). ``bench_config``
further shrinks rounds/samples so the full table/figure suite finishes on
CPU; set ``REPRO_BENCH_SCALE`` > 1 to run closer to the paper's budget.
"""

from __future__ import annotations

import os

from repro.fl.config import ExperimentConfig

__all__ = ["paper_config", "bench_config", "bench_scale", "DATASET_NAME_MAP"]

#: Paper dataset → synthetic stand-in.
DATASET_NAME_MAP = {
    "cifar10": "synth-cifar10",
    "cifar100": "synth-cifar100",
    "svhn": "synth-svhn",
}

#: Tuned hyperparameters per algorithm (the paper tunes α over
#: {0.01, 0.03, 0.1, 0.3, 1} and reports 0.1–0.3 as optimal; γ ≈ |S_t| + 2).
_ALG_DEFAULTS = {
    "fedavg": {},
    "topk": {},
    "eftopk": {},
    "bcrs": {"alpha": 0.3},
    "bcrs_opwa": {"alpha": 0.3, "gamma": 7.0},
}


def paper_config(
    dataset: str,
    algorithm: str,
    *,
    beta: float = 0.5,
    compression_ratio: float = 0.1,
    seed: int = 0,
    **overrides,
) -> ExperimentConfig:
    """The Sec. 5.1 setting: N=10, C=0.5, bs=64, E=1, 200 rounds.

    Args:
        dataset: The paper's dataset names ("cifar10", "svhn", "cifar100")
            or a synthetic name ("synth-*") directly — paper names map
            through :data:`DATASET_NAME_MAP`.
        algorithm: A :data:`repro.fl.config.ALGORITHMS` name; its tuned
            hyperparameters (α, γ) are filled in automatically.
        beta: Dirichlet heterogeneity (lower = more label skew).
        compression_ratio: Target CR*; forced to 1.0 (dense) for
            ``fedavg``.
        seed: Root seed for data/model/links/sampling.
        **overrides: Any further :class:`~repro.fl.config.ExperimentConfig`
            fields, applied last (they win over the tuned defaults).

    Returns:
        A validated :class:`~repro.fl.config.ExperimentConfig`.
    """
    ds = DATASET_NAME_MAP.get(dataset, dataset)
    kwargs: dict = dict(
        dataset=ds,
        model="mlp",
        num_train=2000,
        num_test=500,
        num_clients=10,
        participation=0.5,
        beta=beta,
        rounds=200,
        local_epochs=1,
        batch_size=64,
        lr=0.1,
        algorithm=algorithm,
        compression_ratio=compression_ratio if algorithm != "fedavg" else 1.0,
        seed=seed,
    )
    kwargs.update(_ALG_DEFAULTS.get(algorithm, {}))
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def bench_scale() -> float:
    """Benchmark budget multiplier from ``REPRO_BENCH_SCALE``.

    Returns:
        The environment value as a float (default 1.0); rounds and sample
        counts in :func:`bench_config` scale linearly with it.
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def bench_config(dataset: str, algorithm: str, **overrides) -> ExperimentConfig:
    """A CPU-budget version of :func:`paper_config` for the bench suite.

    Keeps the federation shape (N=10, C=0.5, Dirichlet β, per-algorithm
    hyperparameters) but shortens the run; the *relative ordering* of
    algorithms — what the paper's tables establish — is preserved.

    Args:
        dataset: As in :func:`paper_config`.
        algorithm: As in :func:`paper_config`.
        **overrides: Passed through to :func:`paper_config` after the
            bench-budget defaults (rounds, sample counts, ``eval_every``),
            so explicit values win.

    Returns:
        A validated :class:`~repro.fl.config.ExperimentConfig` sized by
        :func:`bench_scale`.
    """
    scale = bench_scale()
    defaults = dict(
        rounds=max(10, int(40 * scale)),
        num_train=max(400, int(1200 * scale)),
        num_test=max(200, int(400 * scale)),
        eval_every=2,
    )
    defaults.update(overrides)
    return paper_config(dataset, algorithm, **defaults)
