"""The order-statistic rules' rows matrix is capped at construction.

Every aggregation folds its cohort into O(d) buffers except the coordinate
median and the trimmed mean, which densify one float64 row per update: an
``|S_t| × d × 8``-byte matrix. ``Simulation`` refuses a config whose matrix
would pass :data:`~repro.core.arena.ROWS_CAP_BYTES` before it trains
anything, naming the fields to change.
"""

from __future__ import annotations

import pytest

from repro.core.aggregation import ROW_RULES
from repro.core.arena import ROWS_CAP_BYTES
from repro.fl.simulation import Simulation, build_config_model
from repro.nn.params import num_parameters
from repro.fl.config import ExperimentConfig
from repro.scenarios.registry import REGISTRY
from tests.fl.test_round_paths_pinned import CELLS


def width(config: ExperimentConfig) -> int:
    return num_parameters(build_config_model(config, seed=0))


def fleet(cohort: int, aggregator: str) -> ExperimentConfig:
    """A virtual-shard fleet whose rounds select exactly ``cohort`` clients."""
    num_clients = 10_000
    config = ExperimentConfig(
        dataset="synth-cifar10",
        model="mlp",
        num_train=256,
        num_test=32,
        num_clients=num_clients,
        participation=cohort / num_clients,
        virtual_shards=True,
        virtual_shard_min=8,
        virtual_shard_max=8,
        rounds=1,
        algorithm="topk",
        compression_ratio=0.1,
        aggregator=aggregator,
    )
    assert config.clients_per_round == cohort
    return config


@pytest.mark.parametrize("aggregator", ROW_RULES)
def test_last_accepted_and_first_rejected_cohort(aggregator):
    d = width(fleet(1, aggregator))
    last = ROWS_CAP_BYTES // (8 * d)  # 3,993 clients at the MLP's d = 33,610
    with Simulation(fleet(last, aggregator)) as sim:
        assert sim.dense_size == d
    with pytest.raises(ValueError, match=f"aggregator='{aggregator}'.*clients_per_round={last + 1}"):
        Simulation(fleet(last + 1, aggregator))
    # The folding rules hold O(d) whatever the cohort.
    Simulation(fleet(last + 1, "mean")).close()


def test_no_registered_scenario_or_pinned_cell_hits_the_cap():
    configs = {spec.name: spec.to_config() for spec in REGISTRY}
    configs.update(CELLS)
    ranked = {
        name: config.clients_per_round * width(config) * 8
        for name, config in configs.items()
        if config.aggregator in ROW_RULES
    }
    assert len(ranked) >= 4  # the check reaches robust scenarios and cells
    over = {name: rows for name, rows in ranked.items() if rows > ROWS_CAP_BYTES}
    assert not over, f"rows matrices over the {ROWS_CAP_BYTES}-byte cap: {over}"
