"""The model the experiments train.

The paper trains ResNet-18 on CIFAR-sized images; this repo trains an MLP
over flattened synthetic images and prices uploads at paper scale through
``volume_override_bits`` (see docs/ARCHITECTURE.md, "The training
substrate"). Builders take an explicit RNG for reproducible initialization.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.sequential import Sequential
from repro.utils.rng import as_generator

__all__ = ["build_mlp", "build_model", "MODEL_BUILDERS"]


def build_mlp(
    input_dim: int,
    num_classes: int,
    *,
    hidden: tuple[int, ...] = (128, 64),
    seed: int | np.random.Generator = 0,
) -> Sequential:
    """Fully-connected ReLU network over flattened inputs."""
    rng = as_generator(seed)
    layers: list = [Flatten()]
    prev = input_dim
    for i, h in enumerate(hidden):
        layers.append(Linear(prev, h, rng, name=f"fc{i}"))
        layers.append(ReLU())
        prev = h
    layers.append(Linear(prev, num_classes, rng, name="head"))
    return Sequential(*layers)


MODEL_BUILDERS = {"mlp": build_mlp}


def build_model(
    name: str,
    *,
    in_channels: int,
    image_size: int,
    num_classes: int,
    seed: int | np.random.Generator = 0,
    **kwargs,
) -> Sequential:
    """Build a model by registry name with dataset geometry."""
    if name == "mlp":
        return build_mlp(in_channels * image_size * image_size, num_classes, seed=seed, **kwargs)
    raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_BUILDERS)}")
