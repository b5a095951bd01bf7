"""Data substrate: synthetic datasets, non-IID partitioning, batching, stats."""

from repro.data.datasets import DATASET_SPECS, Dataset, SyntheticSpec, make_dataset, train_test_split
from repro.data.loader import BatchLoader
from repro.data.partition import (
    Partition,
    dirichlet_partition,
    iid_partition,
    shard_partition,
)
from repro.data.stats import (
    earth_movers_distance,
    heatmap_text,
    label_entropy,
    mean_emd_to_global,
    mean_label_entropy,
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
    "label_entropy",
    "mean_label_entropy",
    "earth_movers_distance",
    "mean_emd_to_global",
    "heatmap_text",
]
