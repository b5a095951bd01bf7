"""The virtual-shard and loader streams, frozen as literals.

No golden history covers a virtual-shard fleet: the population goldens are
partitioned configs. So a change to how a shard or a loader stream is drawn
(its key words, its bit generator's state) would pass every golden and move
only fleet-scale histories. These arrays were recorded from the program as it
was before one-shot draws began re-keying a reusable Philox. Seed 2's
``"virtual-shard"`` key word is above 2⁶³ (NumPy rounds it to 53 bits before
Philox sees it); seed 1's is below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import DATASET_SPECS, train_test_split
from repro.fl.config import ExperimentConfig
from repro.population import ClientPool, Population

#: seed → cid → (shard_indices, first loader permutation).
FROZEN = {
    1: {
        0: ([60, 23, 120, 185, 127, 249, 142, 138, 189, 240, 45], [1, 9, 5, 0, 4, 8, 6, 7, 10, 2, 3]),
        17: ([125, 199, 175, 199, 27, 160, 161, 85, 143, 58], [9, 5, 2, 8, 0, 3, 6, 4, 1, 7]),
        999: ([169, 46, 32, 102, 38, 71, 224, 252, 91], [3, 7, 8, 2, 4, 1, 0, 6, 5]),
    },
    2: {
        0: (
            [87, 232, 232, 106, 103, 199, 68, 203, 155, 250, 61, 8, 70, 202, 125, 231, 188, 8, 83],
            [9, 17, 8, 0, 14, 10, 7, 16, 1, 18, 2, 4, 15, 3, 5, 13, 11, 6, 12],
        ),
        17: (
            [1, 23, 178, 182, 199, 237, 88, 224, 238, 39, 146, 236, 185, 203, 236, 36, 239],
            [16, 11, 9, 5, 12, 8, 0, 7, 13, 14, 15, 4, 6, 2, 3, 10, 1],
        ),
        999: (
            [189, 33, 115, 159, 166, 253, 184, 141, 30, 38, 217, 242, 62, 237, 37, 179, 16, 108],
            [12, 5, 6, 16, 9, 7, 4, 10, 3, 2, 1, 13, 17, 8, 14, 11, 15, 0],
        ),
    },
}


def fleet(seed):
    cfg = ExperimentConfig(
        dataset="synth-cifar10", model="mlp", num_train=256, num_test=64, num_clients=1000,
        participation=0.01, virtual_shards=True, virtual_shard_min=8, virtual_shard_max=24,
        batch_size=8, seed=seed,
    )
    population = Population.from_config(cfg, partition=None)
    train_set, _ = train_test_split(DATASET_SPECS[cfg.dataset], cfg.num_train, cfg.num_test, seed=seed)
    return population, train_set, ClientPool(population, train_set, cfg.batch_size, cache_size=8)


@pytest.mark.parametrize("seed", sorted(FROZEN))
def test_shards_and_first_loader_permutation_are_frozen(seed):
    population, train_set, pool = fleet(seed)
    for cid, (shard, permutation) in FROZEN[seed].items():
        assert population.shard_indices(cid).tolist() == shard
        client = pool[cid]  # hydration draws the shard again, in another order
        assert client.num_samples == len(shard)
        # The first epoch is gathered from the corpus through the frozen
        # shard, in the frozen permutation's order.
        xs, ys = zip(*client.loader)
        rows = np.asarray(shard)[permutation]
        assert np.array_equal(np.concatenate(xs), train_set.x[rows])
        assert np.array_equal(np.concatenate(ys), train_set.y[rows])
