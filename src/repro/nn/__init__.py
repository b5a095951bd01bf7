"""From-scratch numpy neural-network substrate (see docs/ARCHITECTURE.md).

Provides the model the FL engine trains — an MLP over two flat vectors with
explicit forward/backward passes — its loss and the local SGD optimizer.
"""

from repro.nn.losses import cross_entropy
from repro.nn.mlp import MLP, MODELS
from repro.nn.optim import SGD

__all__ = ["MLP", "MODELS", "cross_entropy", "SGD"]
