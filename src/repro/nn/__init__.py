"""From-scratch numpy neural-network substrate (see DESIGN.md §2).

Provides the differentiable models the FL engine trains: layers with explicit
forward/backward passes, losses, SGD, flat-parameter packing, and a model zoo
(MLP, small CNN, ResNet-style MiniResNet).
"""

from repro.nn.functional import conv_output_size, im2col, col2im
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    GroupNorm,
    Layer,
    Linear,
    MaxPool2d,
    Parameter,
    ReLU,
)
from repro.nn.losses import cross_entropy
from repro.nn.models import build_gn_cnn, build_mini_resnet, build_mlp, build_model, build_small_cnn
from repro.nn.optim import SGD
from repro.nn.params import get_flat_params, num_parameters, param_slices, set_flat_params
from repro.nn.sequential import BasicBlock, Sequential

__all__ = [
    "im2col", "col2im", "conv_output_size",
    "Layer", "Parameter", "Linear", "Conv2d", "BatchNorm2d", "GroupNorm",
    "ReLU", "MaxPool2d", "GlobalAvgPool2d", "Flatten", "Sequential", "BasicBlock",
    "cross_entropy",
    "SGD",
    "num_parameters", "param_slices", "get_flat_params", "set_flat_params",
    "build_mlp", "build_small_cnn", "build_gn_cnn", "build_mini_resnet", "build_model",
]
