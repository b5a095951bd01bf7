"""The order-statistic rules' rows matrix is capped.

Every aggregation folds its updates into O(d) buffers except the coordinate
median and the trimmed mean, which densify one float64 row per update: an
``n × d × 8``-byte matrix for an aggregation that folds ``n``. ``n`` is the
mode's fold capacity — the cohort |S_t| in sync, the buffer K in async, the
fleet in semisync with carryover. ``Simulation`` refuses a config whose
matrix could pass :data:`~repro.core.arena.ROWS_CAP_BYTES` before it trains
anything, naming the field to change, and the arena, the one place the
matrix is allocated, refuses to grow past the cap. The small-cap cases
patch the cap down so nothing allocates a GiB.
"""

from __future__ import annotations

import pytest

from repro.core import arena
from repro.core.aggregation import ROW_RULES
from repro.core.arena import ROWS_CAP_BYTES, AggregationArena
from repro.fl.simulation import Simulation, build_config_model, fold_capacity
from repro.fl.config import ExperimentConfig
from repro.simtime import make_simulation
from repro.scenarios.registry import REGISTRY
from tests.fl.test_round_paths_pinned import CELLS


def width(config: ExperimentConfig) -> int:
    return build_config_model(config, seed=0).data.size


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
        name: fold_capacity(config)[1] * width(config) * 8
        for name, config in configs.items()
        if config.aggregator in ROW_RULES
    }
    assert len(ranked) >= 4  # the check reaches robust scenarios and cells
    over = {name: rows for name, rows in ranked.items() if rows > ROWS_CAP_BYTES}
    assert not over, f"rows matrices over the {ROWS_CAP_BYTES}-byte cap: {over}"


def small(**overrides) -> ExperimentConfig:
    """Ten partitioned clients, three per round, under the median."""
    fields = dict(
        dataset="synth-cifar10", model="mlp", num_train=200, num_test=40,
        num_clients=10, participation=0.3, rounds=6, eval_every=6,
        algorithm="topk", compression_ratio=0.1, aggregator="median",
    )
    fields.update(overrides)
    config = ExperimentConfig(**fields)
    assert config.clients_per_round == 3
    return config


@pytest.fixture
def three_rows(monkeypatch):
    """Cap the rows matrix at three MLP-wide rows; returns the width."""
    d = width(small())
    monkeypatch.setattr(arena, "ROWS_CAP_BYTES", 3 * 8 * d)
    return d


def test_arena_refuses_rows_past_the_cap(three_rows):
    buffers = AggregationArena(three_rows)
    assert buffers.rows(3).shape == (3, three_rows)
    with pytest.raises(ValueError, match="4 float64 rows.*over ROWS_CAP_BYTES"):
        buffers.rows(4)


@pytest.mark.parametrize(
    "overrides, capacity",
    [
        ({}, ("clients_per_round", 3)),
        ({"mode": "async"}, ("async_buffer_size", 2)),  # K = ⌈M/2⌉, M = |S_t|
        ({"mode": "async", "buffer_size": 8}, ("async_buffer_size", 8)),
        ({"mode": "semisync", "late_policy": "drop"}, ("clients_per_round", 3)),
        ({"mode": "semisync", "late_policy": "carryover"}, ("num_clients", 10)),
    ],
    ids=["sync", "async-default-buffer", "async-buffer-8", "semisync-drop", "semisync-carryover"],
)
def test_fold_capacity_per_mode(overrides, capacity):
    assert fold_capacity(small(**overrides)) == capacity


@pytest.mark.parametrize("aggregator", ROW_RULES)
def test_async_cap_is_sized_by_the_buffer(three_rows, aggregator):
    """An async window folds K = 8 updates, not |S_t| = 3."""
    config = small(mode="async", buffer_size=8, aggregator=aggregator)
    assert fold_capacity(config) == ("async_buffer_size", 8)
    with pytest.raises(ValueError, match=f"aggregator='{aggregator}'.*async_buffer_size=8"):
        make_simulation(config)
    make_simulation(config.with_(buffer_size=3)).close()


@pytest.mark.parametrize("aggregator", ROW_RULES)
def test_semisync_carryover_cap_is_sized_by_the_fleet(three_rows, aggregator):
    """A carryover window folds its fresh cohort plus the late updates that
    land in it; dropping late updates keeps every window within |S_t|."""
    config = small(
        mode="semisync", deadline_quantile=0.1, late_policy="carryover", aggregator=aggregator
    )
    with pytest.raises(ValueError, match=f"aggregator='{aggregator}'.*num_clients=10"):
        make_simulation(config)
    make_simulation(config.with_(late_policy="drop")).close()


def test_semisync_carryover_windows_fold_more_than_the_cohort():
    """Why the fleet bounds a carryover window: at the default cap, a late
    update joins a later round's fresh cohort in one aggregation (seed 1's
    seventh window folds 4)."""
    config = small(
        mode="semisync", deadline_quantile=0.1, late_policy="carryover", rounds=8, seed=1
    )
    with make_simulation(config) as sim:
        sim.run()
        folded = [len(r.weights) for r in sim.history.records]
    assert max(folded) > config.clients_per_round
