"""Hierarchical cloud–edge–client federation (mode="hier").

One *cloud round* of :class:`HierSimulation`:

1. every edge runs ``K₁ = edge_rounds`` client↔edge sub-rounds: it samples
   its share of ``clients_per_round`` from its own group, and runs the flat
   sync round's cohort stage (:meth:`~repro.fl.simulation.Simulation.
   _cohort_round`) against the edge model and optimizer — the algorithm
   plans over the group's last-mile links, so **BCRS schedules against each
   edge group's own slowest member**, not the global straggler, and the
   overlap/OPWA machinery is scoped to the group;
2. each edge then uploads its model over its backhaul link, and the cloud
   averages the edge models by group data size (two-level aggregation, the
   HierFAVG discipline);
3. the whole round is priced on the virtual clock: edges advance in
   parallel, each sub-round's barrier is the group's slowest aggregated
   member (``edge_sync="sync"``) or flat semisync's deadline, at which
   :func:`~repro.core.coefficients.straggler_cut` drops stragglers
   (``edge_sync="semisync"``), and the cloud waits for the
   slowest edge's backhaul upload.

Degenerate-equivalence contract: with ``num_edges=1``, ``edge_rounds=1``
and a free backhaul (the config defaults), every round record is
**bit-for-bit identical** to the flat :class:`~repro.fl.simulation.
Simulation` under the same seed — same selections, losses, times, weights,
and virtual spans. The invariance harness (``tests/test_invariance.py``)
checks it on every sync config without client-uplink faults, along with
the usual contract that seeded runs are bit-identical across backends.
"""

from __future__ import annotations

import numpy as np

from repro.fl.config import ExperimentConfig
from repro.fl.history import EdgeRecord, RoundComm, RoundRecord
from repro.fl.simulation import Cohort, Simulation
from repro.hier.topology import assign_edges, sample_backhaul_links
from repro.network.cost import uplink_time
from repro.network.metrics import RoundTimes
from repro.network.transport import Payload
from repro.utils.rng import RngFactory

__all__ = ["HierSimulation"]


class HierSimulation(Simulation):
    """Two-tier federated rounds: per-edge sub-rounds + cloud averaging."""

    def __init__(self, config: ExperimentConfig, obs=None, context=None):
        super().__init__(config, obs=obs, context=context)
        rngs = RngFactory(config.seed)
        # Edge-crash fates draw from a dedicated counter stream keyed by
        # (cloud round, edge) — stateless, so zero probability means zero
        # draws and the degenerate-equivalence contract is untouched.
        self._crash_rngs = rngs
        # The hierarchy, from dedicated streams so it never perturbs the flat
        # protocol's draws: groups[e] are the sorted int64 ids edge e serves,
        # backhaul_links[e] its edge↔cloud link (None = free).
        self.groups = assign_edges(
            config.num_clients, config.num_edges, config.edge_assignment,
            bandwidth_bps=self.population.bandwidth_bps, seed=rngs.stream("edge-assign"),
        )
        self.backhaul_links = sample_backhaul_links(
            config.num_edges, bandwidth_mbps=config.backhaul_bandwidth_mbps,
            latency_s=config.backhaul_latency_s, heterogeneity=config.backhaul_heterogeneity,
            seed=rngs.stream("backhaul"),
        )
        # One server optimizer per edge (identical hyperparameters); its
        # state (momentum/Adam moments) persists across cloud rounds.
        self.edge_opts = [self._make_server_opt() for _ in self.groups]
        # Weight the cloud tier by each group's data — summed from the size
        # column, so a fleet-scale hierarchy never hydrates clients here.
        sizes = np.array([self.population.data_sizes[g].sum() for g in self.groups], dtype=float)
        self.edge_freqs = sizes / sizes.sum()
        # Each edge's sub-round share: clients_per_round split by group size,
        # largest remainder first (ties to the lower edge), at least one.
        counts = np.array([len(g) for g in self.groups], dtype=np.int64)
        k = config.clients_per_round
        shares, rem = np.divmod(k * counts, counts.sum())
        shares[np.argsort(-rem, kind="stable")[: k - shares.sum()]] += 1
        self.shares = np.maximum(shares, 1).tolist()

    # ------------------------------------------------------------------ round

    def run_round(self) -> RoundRecord:
        """One cloud round: K₁ sub-rounds per edge, then cloud averaging."""
        with self.obs.tracer.span("round", cat="sim", round=self.round_index):
            return self._cloud_round()

    def _cloud_round(self) -> RoundRecord:
        cfg = self.config
        E = len(self.groups)
        self._begin_round()

        sim_start = self.sim_clock
        # Edge-aggregator crash events: each edge fails this cloud round
        # with probability edge_crash_prob, decided by a counter-RNG draw
        # keyed on (round, edge). A crashed edge runs no sub-rounds and
        # sends no backhaul; the cloud reweights the survivors' models.
        crashed = [False] * E
        if cfg.edge_crash_prob > 0.0:
            draws = [self._crash_rngs.counter(f"edge-crash-{self.round_index}", e) for e in range(E)]
            crashed = [float(rng.random()) < cfg.edge_crash_prob for rng in draws]
        alive = [e for e in range(E) if not crashed[e]]

        # Every edge starts from this round's global model.
        edge_params = [self.global_params.copy() for _ in range(E)]

        # Cloud→edge broadcast opens the round (charged only when downlink
        # accounting is on, mirroring the client tier). Backhaul links are
        # provisioned symmetric, so no residential downlink factor; the
        # broadcast is exclusive (contention models the shared *ingress*).
        dense_model = Payload.dense(self.volume_bits)
        backhaul_down = [
            self.transport.broadcast_seconds(link, dense_model)
            if cfg.include_downlink and not crashed[e]
            else 0.0
            for e, link in enumerate(self.backhaul_links)
        ]
        elapsed = list(backhaul_down)  # per-edge virtual time since sim_start
        # Each edge's sub-rounds in order: (selected ids, its cohort).
        subs: list[list[tuple[np.ndarray, Cohort]]] = [[] for _ in range(E)]

        # Sub-rounds advance lock-step across edges only in *stream order*:
        # edges are independent in virtual time (each has its own clock), but
        # every edge draws from the flat sampler's stream in (sub-round, edge)
        # order — with one edge, exactly as the flat protocol does.
        for k in range(cfg.edge_rounds):
            for e in alive:
                with self.obs.tracer.span("hier.subround", cat="hier", edge=e, sub_round=k):
                    group = self.groups[e]
                    picks = self.sampler.rng.choice(len(group), size=self.shares[e], replace=False)
                    selected = np.sort(group[picks])
                    # BCRS benchmarks against this group's own slowest member;
                    # under fair contention each (edge, sub-round) is one
                    # ingress epoch — each edge aggregator owns its capacity.
                    sub = self._cohort_round(
                        selected, edge_params[e], self.edge_opts[e], sim_start + elapsed[e],
                        cut=cfg.edge_sync == "semisync",
                    )
                edge_params[e] = sub.params
                elapsed[e] += sub.span
                subs[e].append((selected, sub))
        ran = [subs[e][k] for k in range(cfg.edge_rounds) for e in alive]  # stream order
        cohort = [int(c) for selected, _ in ran for c in selected]

        # Edge→cloud uploads (dense edge models over the backhaul), then the
        # cloud averages edge models by group data size — two-level FedAvg.
        # Under fair contention the E backhaul uploads share the *cloud's*
        # ingress capacity (one water-filled epoch per cloud round).
        billed = [e for e in alive if self.backhaul_links[e] is not None]
        backhaul_up = [0.0] * E
        if self.transport.contended:
            uploads = [(dense_model, self.backhaul_links[e], sim_start + elapsed[e])
                       for e in billed]
            with self.obs.tracer.span("hier.backhaul", cat="hier", edges=len(billed)):
                ends = self.transport.resolve_uploads(uploads)
            for e, (_, _, start), end in zip(billed, uploads, ends):
                backhaul_up[e] = end - start
        else:
            for e in billed:
                backhaul_up[e] = uplink_time(self.backhaul_links[e], self.volume_bits)
        edge_totals = [elapsed[e] + backhaul_up[e] for e in range(E)]
        backhaul_bits = self.volume_bits * (2.0 if cfg.include_downlink else 1.0)  # up (+ down)
        backhaul_map = dict.fromkeys(billed, backhaul_bits)

        # Cloud merge over the surviving edges, reweighted by their share of
        # the data. The no-crash path keeps edge_freqs bit-for-bit (no
        # renormalization); an all-crashed round leaves the model unchanged.
        if len(alive) == E:
            freqs_alive = self.edge_freqs
        elif alive:
            freqs_alive = self.edge_freqs[alive]
            freqs_alive = freqs_alive / freqs_alive.sum()
        if alive:
            # float64 sum in ``alive`` order, rounded once: the goldens pin it.
            acc = np.zeros_like(self.global_params, dtype=np.float64)
            for f, e in zip(freqs_alive, alive):
                acc += f * edge_params[e]
            self.global_params = acc.astype(np.float32)

        backhaul_s = [backhaul_up[e] + backhaul_down[e] for e in range(E)]

        def summed(e: int, field: str) -> float:
            # Edge e's sub-round times added in order (not ``sum()``, whose
            # float path is compensated from Python 3.12 on).
            total = 0.0
            for _, sub in subs[e]:
                total += getattr(sub.times, field)
            return total

        if alive:
            times = RoundTimes(
                actual=max(summed(e, "actual") + backhaul_s[e] for e in alive),
                maximum=max(summed(e, "maximum") + backhaul_s[e] for e in alive),
                minimum=min(summed(e, "minimum") + backhaul_s[e] for e in alive),
                downlink=max(summed(e, "downlink") + backhaul_down[e] for e in alive),
            )
        else:
            times = RoundTimes(0.0, 0.0, 0.0, 0.0)

        breakdown = tuple(
            EdgeRecord(
                edge=e,
                selected=tuple(int(c) for selected, _ in subs[e] for c in selected),
                sub_spans=tuple(sub.span for _, sub in subs[e]),
                backhaul_s=backhaul_s[e],
                start=sim_start,
                end=sim_start + edge_totals[e],
            )
            for e in range(E)
        )
        singletons = [sub.singleton for _, sub in ran if sub.singleton is not None]
        return self._commit(
            selected=cohort,
            members=[m for _, sub in ran for m in sub.members],
            times=times,
            weights=[w for _, sub in ran for w in sub.weights],
            singleton=float(np.mean(singletons)) if singletons else None,
            sim_start=sim_start,
            sim_end=sim_start + max(edge_totals),
            edge_breakdown=breakdown,
            comm=RoundComm.from_maps(
                uplink=self._add_bits({}, cohort, [b for _, sub in ran for b in sub.up_bits]),
                downlink=self._add_bits({}, cohort, [b for _, sub in ran for b in sub.down_bits]),
                backhaul=backhaul_map,
            ),
            num_participants=len(cohort) if cfg.edge_crash_prob > 0.0 else None,
        )
