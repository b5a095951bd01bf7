"""Memory regression guard: fleet size must not buy fleet-sized memory.

The population refactor's core promise is memory O(active cohort) +
O(columns). These tests compare traced allocation peaks of a 100K-client
fleet against a 1K-client fleet at the *same* 64-client cohort: if eager
per-client materialization (shard copies, loaders, compressors) ever
returns, the big fleet's peak explodes by orders of magnitude and the
bounds here fail long before CI's memory does.

tracemalloc sees numpy buffers (numpy routes allocations through
``PyTraceMalloc_Track``), so traced peaks are a faithful, RSS-independent
proxy that stays stable across machines.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.aggregation import CohortFold
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.scenarios.registry import get_scenario

COHORT = 64

#: 100×-fleet overhead allowed beyond the small fleet's peak: the five
#: population columns at 100K clients are ~3.3 MB; 32 MB of slack absorbs
#: allocator noise while staying ~3 orders of magnitude below what eager
#: hydration of 100K shards would cost.
SLACK_BYTES = 32 * 1024 * 1024


def fleet_config(num_clients: int) -> ExperimentConfig:
    return ExperimentConfig(
        dataset="synth-cifar10",
        model="mlp",
        num_train=512,
        num_test=64,
        num_clients=num_clients,
        participation=COHORT / num_clients,
        virtual_shards=True,
        virtual_shard_min=8,
        virtual_shard_max=24,
        hydration_cache=COHORT,
        rounds=1,
        batch_size=8,
        eval_every=10,
        algorithm="eftopk",
        compression_ratio=0.25,
        seed=11,
    )


def traced_peak(num_clients: int) -> int:
    """Traced allocation peak (bytes) of construct + one round."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    with Simulation(fleet_config(num_clients)) as sim:
        sim.run(1)
        assert len(sim.history.records[0].selected) == COHORT
        hydrated = sim.clients.hydrations
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert hydrated == COHORT  # only the cohort ever materialized
    return peak


@pytest.mark.slow
def test_peak_memory_is_cohort_bound_not_fleet_bound():
    small = traced_peak(1_000)
    large = traced_peak(100_000)
    # 100× the fleet must cost only the columns (plus slack), never 100×
    # the objects. An eager-materialization regression overshoots this by
    # ~3 orders of magnitude.
    assert large <= small + SLACK_BYTES, (
        f"100K-client peak {large / 1e6:.1f} MB vs 1K-client "
        f"{small / 1e6:.1f} MB — fleet-sized materialization is back"
    )


def test_population_columns_scale_linearly_and_small():
    cfg = fleet_config(100_000)
    from repro.population import Population

    pop = Population.from_config(cfg, partition=None)
    # Four numpy columns: 3 float64 + 1 int64 = 32 bytes/client.
    assert column_bytes(pop) == 100_000 * 32


def column_bytes(pop) -> int:
    """Bytes of every array the population holds: its O(fleet) footprint."""
    return sum(v.nbytes for v in vars(pop).values() if isinstance(v, np.ndarray))


def test_steady_state_round_holds_one_cohort_of_updates():
    """From the second round on, a sync round's transient memory is the
    server's O(d) buffers plus a few updates, not one cohort's uploads: each
    upload is folded into the aggregate as it arrives and released.

    Plain ``topk`` so every round's uploads are the same size and nothing
    else grows (``eftopk`` adds 64 new clients' residuals per round — client
    state, not round state). Measured with tracemalloc on this config
    (d = 33,610, 64 uploads of 0.10 MB): peak − static = 0.56 MB, 0.09 of
    the round's 6.45 MB of uploads — 1.06 when a round held its cohort until
    the barrier. The bound is the arena's bytes (0.54 MB: the fold's counts
    and mask are smaller) plus four uploads, a sixth of one cohort.
    """
    cfg = fleet_config(100_000).with_(algorithm="topk", rounds=4)
    uploads: list[int] = []
    real_add = CohortFold.add

    def recording_add(self, update, weight=0.0):
        uploads.append(update.indices.nbytes + update.values.nbytes)
        return real_add(self, update, weight)

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch, Simulation(cfg) as sim:
            patch.setattr(CohortFold, "add", recording_add)
            for _ in range(3):
                sim.run_round()
            static = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            uploads.clear()
            sim.run_round()
            _, peak = tracemalloc.get_traced_memory()
            arena = sim.arena.nbytes()
    finally:
        tracemalloc.stop()
    assert len(uploads) == COHORT and len(set(uploads)) == 1
    bound = arena + 4 * uploads[0]
    assert peak - static <= bound, (
        f"round 3 peaked {(peak - static) / 1e6:.2f} MB above the static state, "
        f"over the {bound / 1e6:.2f} MB of O(d) buffers plus four uploads — "
        f"the round is holding its {sum(uploads) / 1e6:.2f} MB cohort"
    )


#: Bytes a fleet round may leave allocated per participant. Measured on
#: ``mega-fleet``'s overrides at 100K clients (1K cohort, rounds 2–3): 1,061 B,
#: mostly the round's span log and the history's per-client ledgers; 5,523 B
#: when every participant kept a whole loader ``Generator`` and the LRU's
#: clients held copies of their shard rows.
RETAINED_PER_PARTICIPANT_ROUND = 1536


@pytest.mark.slow
def test_fleet_rounds_retain_little_per_participant():
    """Memory a fleet keeps grows with its distinct participants (the parked
    loader streams) and with its rounds' records — bounded here per
    participant-round, so growth of ``mega-fleet`` from round to round stays
    pinned without a 1M-client run."""
    cfg = get_scenario("mega-fleet").to_config().with_(num_clients=100_000, rounds=3)
    with Simulation(cfg) as sim:
        sim.run_round()  # warm-up: buffers and caches a first round sizes
        tracemalloc.start()
        try:
            sim.run_round()
            sim.run_round()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        participants = sum(len(r.selected) for r in sim.history.records[1:])
    assert participants == 2 * cfg.clients_per_round == 2000
    per = retained / participants
    assert per <= RETAINED_PER_PARTICIPANT_ROUND, (
        f"two fleet rounds left {retained / 1e6:.2f} MB allocated, {per:.0f} B per "
        f"participant-round (bound {RETAINED_PER_PARTICIPANT_ROUND} B)"
    )


def ref_fleet_columns(cfg: ExperimentConfig):
    """The virtual-fleet link and speed columns as they were built before the
    in-place construction, frozen: every step through a fresh temporary."""
    from repro.network.links import PAPER_LINK_MODEL as model
    from repro.population.table import COMPUTE_S_PER_SAMPLE
    from repro.utils.rng import RngFactory

    rngs, n = RngFactory(cfg.seed), cfg.num_clients
    rng = rngs.stream("links")
    bw = np.maximum(
        rng.normal(model.bandwidth_mean_bps, model.bandwidth_std_bps, n),
        model.bandwidth_floor_bps,
    )
    span = model.latency_high_s - model.latency_low_s
    lat = model.latency_high_s - rng.uniform(0.0, span, n)
    z = rngs.stream("compute").standard_normal(n)
    return bw, lat, COMPUTE_S_PER_SAMPLE * np.exp(cfg.compute_heterogeneity * z)


@pytest.mark.parametrize("num_clients", [1, 1000, 100_003])
@pytest.mark.parametrize("seed", [0, 11, 2024])
def test_in_place_fleet_columns_are_byte_equal(seed, num_clients):
    from repro.population import Population

    cfg = fleet_config(COHORT).with_(num_clients=num_clients, seed=seed)
    pop = Population.from_config(cfg, partition=None)
    live = (pop.bandwidth_bps, pop.latency_s, pop.s_per_sample)
    for got, ref in zip(live, ref_fleet_columns(cfg)):
        assert got.dtype == ref.dtype == np.float64
        assert got.tobytes() == ref.tobytes()
