"""From-scratch numpy neural-network substrate (see docs/ARCHITECTURE.md).

Provides the differentiable model the FL engine trains: layers with explicit
forward/backward passes, losses, SGD, flat-parameter packing, and the MLP
builder.
"""

from repro.nn.layers import Flatten, Layer, Linear, Parameter, ReLU
from repro.nn.losses import cross_entropy
from repro.nn.models import build_mlp, build_model
from repro.nn.optim import SGD
from repro.nn.params import get_flat_params, num_parameters, set_flat_params
from repro.nn.sequential import Sequential

__all__ = [
    "Layer", "Parameter", "Linear", "ReLU", "Flatten", "Sequential",
    "cross_entropy",
    "SGD",
    "num_parameters", "get_flat_params", "set_flat_params",
    "build_mlp", "build_model",
]
