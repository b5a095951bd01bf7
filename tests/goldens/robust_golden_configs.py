"""The configs behind the robustness golden histories.

Every protocol mode × {honest, sign_flip, lossy}: the honest variants pin
the default path (no adversary, no faults, plain weighted mean), the
``sign_flip`` variants pin the byzantine + robust-aggregation machinery,
and the ``lossy`` variants pin transport fault injection — drop/truncate
for the flat modes, an edge crash for hier (where per-flow faults are
rejected by construction and loss means losing an aggregator).

Unlike the frozen pre-refactor traces in ``tests/population/goldens``,
these goldens are build products of the current tree: regenerate with
``scripts/regen_goldens.py`` (or ``REGEN_GOLDEN=1 pytest tests/goldens``)
after any *intentional* change to the trace.
"""

from __future__ import annotations

from repro.fl.config import ExperimentConfig

__all__ = ["ROBUST_GOLDEN_CONFIGS", "golden_name"]


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=480,
        num_test=160,
        num_clients=12,
        participation=0.5,
        rounds=3,
        batch_size=32,
        lr=0.1,
        seed=11,
        eval_every=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


#: mode → protocol-shaping overrides (mirrors the population goldens).
_MODES: dict[str, dict] = {
    "sync": dict(algorithm="bcrs_opwa", compression_ratio=0.1),
    "semisync": dict(
        algorithm="eftopk",
        compression_ratio=0.2,
        mode="semisync",
        deadline_quantile=0.6,
        late_policy="carryover",
        rounds=4,
    ),
    "async": dict(
        algorithm="topk",
        compression_ratio=0.2,
        mode="async",
        concurrency=4,
        buffer_size=2,
        rounds=4,
    ),
    "hier": dict(
        algorithm="bcrs_opwa",
        compression_ratio=0.1,
        mode="hier",
        num_edges=3,
        edge_rounds=2,
        rounds=3,
    ),
}


def _variant(mode: str, variant: str) -> dict:
    if variant == "honest":
        return {}
    if variant == "sign_flip":
        return dict(
            adversary="sign_flip",
            adversary_fraction=0.25,
            aggregator="trimmed_mean",
            trim_beta=0.2,
        )
    assert variant == "lossy"
    if mode == "hier":
        # Hier rejects per-flow drop/truncate; its transport loss is a
        # crashing edge aggregator the cloud must recover from.
        return dict(edge_crash_prob=0.3)
    return dict(drop_prob=0.15, truncate_prob=0.25)


#: name → config. Names key the golden JSON files in this directory.
ROBUST_GOLDEN_CONFIGS: dict[str, ExperimentConfig] = {
    f"{mode}-{variant}": _cfg(**{**_MODES[mode], **_variant(mode, variant)})
    for mode in _MODES
    for variant in ("honest", "sign_flip", "lossy")
}


def golden_name(name: str) -> str:
    """Golden JSON filename for config ``name``."""
    return f"{name}.json"
