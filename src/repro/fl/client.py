"""Client-side local training — the LOCALTRAINING procedure of Algorithm 1.

A client receives the global model ``w_t``, runs ``E`` epochs of mini-batch
SGD on its local shard, and returns the *update* ``Δw = w_t − w_E`` (positive
update = descent direction, matching Alg. 1 line 26).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import Dataset
from repro.data.loader import BatchLoader
from repro.nn.losses import cross_entropy
from repro.nn.mlp import MLP
from repro.nn.optim import SGD

__all__ = ["LocalTrainResult", "Client"]


@dataclass
class LocalTrainResult:
    """Output of one client round."""

    delta: np.ndarray  # Δw = w_t − w_local, flat float32
    mean_loss: float  # average training loss over the round's batches
    num_batches: int


class Client:
    """One federated participant: a fixed shard of the corpus, by row index."""

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        indices: np.ndarray,
        batch_size: int,
        rng: np.random.Generator,
    ):
        if len(indices) == 0:
            raise ValueError(f"client {client_id} has an empty shard")
        self.client_id = int(client_id)
        self.loader = BatchLoader(dataset, indices, batch_size, rng)

    @property
    def num_samples(self) -> int:
        """Local shard size ``n_k``."""
        return len(self.loader.indices)

    def local_train(
        self,
        model: MLP,
        global_params: np.ndarray,
        *,
        lr: float,
        epochs: int,
        proximal_mu: float = 0.0,
    ) -> LocalTrainResult:
        """Run LOCALTRAINING on a shared model instance.

        The caller owns the model object; this method loads ``global_params``
        into it, trains in place, and reads the result out — the
        single-process analogue of shipping the model to the device.
        Because every parameter is overwritten from the round's inputs, the
        result depends on no earlier use of the model, which is what lets a
        forked worker train its own copy of the simulation's model.

        ``proximal_mu > 0`` adds FedProx's proximal gradient
        ``μ·(w − w_t)`` each step, pulling local iterates toward the global
        model to counter client drift (Li et al., the paper's FedProx [27]).
        """
        data, grad = model.data, model.grad
        np.copyto(data, global_params)
        opt = SGD(data, grad, lr=lr)
        anchor = data.copy() if proximal_mu > 0 else None
        total_loss = 0.0
        batches = 0
        for _ in range(epochs):
            for x, y in self.loader:
                # Allocation-free: model workspaces; the loss gradient overwrites the logits.
                logits = model(x, training=True)
                loss, grad_logits = cross_entropy(logits, y, out=logits)
                model.backward(grad_logits)
                if anchor is not None:
                    grad += proximal_mu * (data - anchor)
                opt.step()
                total_loss += loss
                batches += 1
        delta = global_params - data
        return LocalTrainResult(
            delta=delta,
            mean_loss=total_loss / max(batches, 1),
            num_batches=batches,
        )
