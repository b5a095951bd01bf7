"""Data substrate: synthetic datasets, non-IID partitioning, batching, stats."""

from repro.data.datasets import DATASET_SPECS, Dataset, SyntheticSpec, make_dataset, train_test_split
from repro.data.loader import BatchLoader
from repro.data.partition import (
    Partition,
    dirichlet_partition,
    iid_partition,
    shard_partition,
)

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "make_dataset",
    "train_test_split",
    "DATASET_SPECS",
    "BatchLoader",
    "Partition",
    "dirichlet_partition",
    "iid_partition",
    "shard_partition",
]
