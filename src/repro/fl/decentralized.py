"""Decentralized (server-free) FL with sparsified gossip averaging.

The paper's related work includes decentralized sparsified learning
([47] Tang et al. ICDCS'20, [49] GossipFL): no central server — clients sit
on a communication graph, train locally, and exchange *compressed* model
updates with neighbors, mixing via a doubly-stochastic matrix (D-PSGD with
Top-K gossip). This module provides that substrate so BCRS-style ideas can
be studied without a star topology.

Simulation simplification (documented): clients mix using neighbors'
previous-round parameters minus their *compressed* updates. A real protocol
maintains per-neighbor estimates; the single-process simulation reads the
true previous parameters, which is exactly what those estimates converge to
when every exchange succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.registry import make_compressor
from repro.exec import ClientTask, TrainSpec
from repro.fl.config import ExperimentConfig
from repro.fl.context import SimulationContext
from repro.fl.engine import EngineMixin, build_config_model
from repro.network.cost import model_bits, sparse_uplink_time
from repro.nn.params import get_flat_params, num_parameters, set_flat_params
from repro.population import ClientPool
from repro.utils.rng import RngFactory

__all__ = ["mixing_matrix", "ring_edges", "random_regular_edges", "DecentralizedSimulation"]


def ring_edges(n: int) -> list[tuple[int, int]]:
    """Ring topology edges."""
    if n < 2:
        raise ValueError(f"need >= 2 nodes, got {n}")
    return [(i, (i + 1) % n) for i in range(n)]


def random_regular_edges(n: int, degree: int, seed: int = 0) -> list[tuple[int, int]]:
    """Random d-regular graph edges (via networkx)."""
    import networkx as nx

    if degree >= n:
        raise ValueError(f"degree {degree} must be < n {n}")
    g = nx.random_regular_graph(degree, n, seed=seed)
    return [(int(a), int(b)) for a, b in g.edges()]


def mixing_matrix(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Metropolis–Hastings weights: symmetric, doubly stochastic, with
    self-loops absorbing the remainder — the standard D-PSGD mixer."""
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"bad edge ({a}, {b})")
        adj[a, b] = adj[b, a] = True
    deg = adj.sum(axis=1)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j]:
                w[i, j] = w[j, i] = 1.0 / (1 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


@dataclass
class GossipRound:
    """Per-round record of the decentralized run."""

    round_index: int
    mean_accuracy: float | None
    consensus_distance: float
    comm_time: float


class DecentralizedSimulation(EngineMixin):
    """D-PSGD with Top-K gossip over an explicit topology.

    Reuses the centralized engine's config for the task/optimizer knobs;
    ``participation`` is ignored (everyone trains every round, as in
    decentralized SGD), and ``compression_ratio`` sets the gossip Top-K.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        edges: list[tuple[int, int]] | None = None,
    ):
        self.config = config
        n = config.num_clients
        self.edges = ring_edges(n) if edges is None else edges
        self.mixing = mixing_matrix(n, self.edges)
        rngs = RngFactory(config.seed)

        # The same world a centralised run of this config trains on: its
        # split, its config.partition shards and its fleet's link column.
        world = SimulationContext.build(config)
        self.train_set, self.test_set = world.train_set, world.test_set
        self.clients = ClientPool(world.population, self.train_set, config.batch_size, cache_size=n)
        self.model = build_config_model(config, seed=rngs.stream("model"))
        init = get_flat_params(self.model)
        self.params = np.tile(init, (n, 1))  # one row per client
        self.volume_bits = model_bits(num_parameters(self.model))
        self.links = world.population.links
        self.compressors = [
            make_compressor("topk", seed=rngs.child("compressor", cid)) for cid in range(n)
        ]
        self.history: list[GossipRound] = []
        self.round_index = 0

        # Every client trains every round, so gossip rounds parallelize the
        # same way as centralized ones. Persistent model state (BN stats) is
        # deliberately NOT synchronized between clients here — matching the
        # pre-backend behaviour — so only the serial backend is exactly
        # order-reproducing for models with persistent buffers. Rather than
        # silently break the cross-backend bit-identity contract, refuse the
        # combination outright; the stock decentralized models (MLP/GN)
        # carry no buffers and parallelize freely.
        if config.backend != "serial" and self.model.state_arrays():
            raise ValueError(
                f"model {config.model!r} carries persistent buffers (BN stats), "
                "which the decentralized engine does not synchronize across "
                "parallel workers — use backend='serial' or a buffer-free "
                "model (e.g. 'mlp', 'gn_cnn')"
            )
        # Deliberately NOT TrainSpec.from_config: D-PSGD local steps have no
        # proximal term, whatever the config's FedProx knob says (it
        # parameterizes the *centralized* engine).
        self._train_spec = TrainSpec(
            lr=config.lr, epochs=config.local_epochs, return_delta=True
        )

    # ------------------------------------------------------------------

    def consensus_distance(self) -> float:
        """Mean distance of client models from their average (disagreement)."""
        center = self.params.mean(axis=0)
        return float(np.linalg.norm(self.params - center, axis=1).mean())

    def _degree(self, i: int) -> int:
        return sum(1 for a, b in self.edges if a == i or b == i)

    def run_round(self, *, train: bool = True) -> GossipRound:
        """One gossip round: local step, compressed exchange, mixing."""
        cfg = self.config
        n = cfg.num_clients

        # Local training from each client's own parameters, plus per-client
        # compression of the round update — one backend task per client.
        if train:
            # The whole per-client parameter matrix is the round's global
            # input (one shared-memory broadcast on the process backend);
            # each task indexes its own row.
            new_params = np.empty_like(self.params)
            compressed_new = np.empty_like(self.params)
            tasks = [
                ClientTask(position=i, cid=i, ratio=cfg.compression_ratio, params_row=i)
                for i in range(n)
            ]
            results = self._run_tasks(tasks, self.params, None, self._train_spec)
            for i, res in enumerate(results):
                new_params[i] = self.params[i] - res.delta
                compressed_new[i] = self.params[i] - res.update.to_dense()
        else:
            # No training: the round update is exactly zero, and TopK of a
            # zero vector reconstructs to zero — neighbors mix the previous
            # parameters unchanged. Both views alias self.params (read-only
            # below).
            new_params = self.params
            compressed_new = self.params

        # Mixing: own params exactly, neighbors' through the compressed view.
        mixed = np.empty_like(new_params)
        for i in range(n):
            acc = self.mixing[i, i] * new_params[i].astype(np.float64)
            for j in range(n):
                if j != i and self.mixing[i, j] > 0:
                    acc += self.mixing[i, j] * compressed_new[j].astype(np.float64)
            mixed[i] = acc.astype(np.float32)
        self.params = mixed

        # Communication time: every client sequentially uploads its
        # compressed update once per neighbor; the round waits for the
        # busiest uplink.
        times = [
            self._degree(i)
            * sparse_uplink_time(self.links[i], self.volume_bits, cfg.compression_ratio)
            for i in range(n)
        ]
        comm_time = float(max(times))

        evaluate = (self.round_index % cfg.eval_every == 0) or (
            self.round_index == cfg.rounds - 1
        )
        rec = GossipRound(
            round_index=self.round_index,
            mean_accuracy=self.mean_accuracy() if evaluate else None,
            consensus_distance=self.consensus_distance(),
            comm_time=comm_time,
        )
        self.history.append(rec)
        self.round_index += 1
        return rec

    def run(self, rounds: int | None = None, *, train: bool = True) -> list[GossipRound]:
        total = self.config.rounds if rounds is None else rounds
        for _ in range(total):
            self.run_round(train=train)
        return self.history

    def mean_accuracy(self, batch_size: int = 256) -> float:
        """Average test accuracy over all client models."""
        accs = []
        for i in range(self.config.num_clients):
            set_flat_params(self.model, self.params[i])
            correct = 0
            ntest = len(self.test_set)
            for start in range(0, ntest, batch_size):
                x = self.test_set.x[start : start + batch_size]
                y = self.test_set.y[start : start + batch_size]
                logits = self.model(x, training=False)
                correct += int((logits.argmax(axis=1) == y).sum())
            accs.append(correct / ntest)
        return float(np.mean(accs))
