"""Experiment configuration (the knobs of Sec. 5.1, plus engine options)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.bcrs import BENCHMARK_RULES
from repro.core.coefficients import NORM_MODES
from repro.data.datasets import DATASET_SPECS
from repro.exec import BACKENDS
from repro.network.transport import CONTENTION_MODES
from repro.nn.models import MODEL_BUILDERS
from repro.utils.validation import check_fraction, check_positive

__all__ = [
    "ExperimentConfig",
    "ALGORITHMS",
    "BACKENDS",
    "MODES",
    "LATE_POLICIES",
    "EDGE_ASSIGNMENTS",
    "EDGE_SYNC_MODES",
    "CONTENTION_MODES",
    "ADVERSARIES",
    "AGGREGATORS",
]

#: Algorithms of Table 2 (the baselines and the paper's two methods) plus
#: the deadline-drop straggler policy used as an extra ablation baseline.
ALGORITHMS = ("fedavg", "topk", "eftopk", "bcrs", "bcrs_opwa", "deadline_topk")

#: Round protocols: lock-step sync, deadline-based semi-sync, FedBuff-style
#: fully-async buffered aggregation (repro.simtime), and hierarchical
#: cloud–edge–client federation (repro.hier).
MODES = ("sync", "semisync", "async", "hier")

#: What a semi-sync round does with updates that miss its deadline.
LATE_POLICIES = ("carryover", "drop")

#: How clients are placed under edge aggregators (repro.hier).
EDGE_ASSIGNMENTS = ("contiguous", "random", "bandwidth")

#: Edge sub-round barrier semantics: lock-step, or deadline-drop.
EDGE_SYNC_MODES = ("sync", "semisync")

# CONTENTION_MODES ("none" | "fair") is defined by repro.network.transport —
# the transport layer owns the contention vocabulary — and re-exported here
# for config consumers.

#: Byzantine client behaviors (repro.robust.attacks). sign_flip and scaled
#: corrupt the trained delta; label_flip poisons the client's shard at
#: hydration so virtual fleets stay O(active cohort).
ADVERSARIES = ("sign_flip", "scaled", "label_flip")

#: Server-side aggregation rules (repro.robust.aggregators). "mean" is the
#: paper's weighted mean; the rest trade exactness for breakdown resistance.
AGGREGATORS = ("mean", "median", "trimmed_mean", "norm_clip")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one FL run.

    Defaults follow the paper's federated setting (Sec. 5.1): N=10 clients,
    participation C=0.5, batch size 64, E=1 local epoch, Dirichlet β, with
    the synthetic datasets and the MLP of docs/ARCHITECTURE.md.
    """

    # Task
    dataset: str = "synth-cifar10"
    # One legal value ("mlp"). The field stays because bench/workloads.py
    # passes model="mlp" three times, and bench/ changes only in a change to
    # the benchmark itself.
    model: str = "mlp"
    num_train: int = 2000
    num_test: int = 500

    # Federation (Sec. 5.1)
    num_clients: int = 10
    participation: float = 0.5  # C: fraction selected per round
    beta: float = 0.5  # Dirichlet heterogeneity (lower = more severe)
    rounds: int = 200
    local_epochs: int = 1  # E
    batch_size: int = 64

    # Local optimizer: plain SGD (Alg. 1 lines 21–27)
    lr: float = 0.05  # η
    proximal_mu: float = 0.0  # FedProx proximal term μ·||w − w_t||²/2 (0 = off)

    # Algorithm under test
    algorithm: str = "fedavg"
    compressor: str | None = None  # registry name overriding the algorithm's
    #   default client compressor (e.g. "qsgd8" for 8-bit quantized uplinks);
    #   None = the algorithm's own choice. Requires a compressing algorithm.
    compression_ratio: float = 1.0  # CR* (retained fraction; 1.0 = dense)
    alpha: float = 0.3  # server learning rate in Eq. 6
    gamma: float = 5.0  # OPWA enlarge rate γ
    required_overlap: int = 1  # OPWA threshold D
    norm_mode: str = "sum"  # Eq. 6 Norm() variant
    benchmark: str = "max"  # BCRS benchmark rule
    server_step: float = 1.0  # η_s in Alg. 1 lines 14/16/18 (server-opt LR)
    server_optimizer: str = "sgd"  # FedOpt family: "sgd" (FedAvg/FedAvgM) | "adam" (FedAdam)
    server_momentum: float = 0.0  # FedAvgM momentum (server_optimizer="sgd")
    deadline_quantile: float = 0.5  # deadline_topk: round ends at this time quantile

    # Fleet-scale population (repro.population). virtual_shards switches the
    # client-data regime from "partition the corpus" to "each client's shard
    # is a procedural, counter-seeded draw from the shared corpus" — the
    # regime that lets num_clients dwarf num_train and the population table
    # construct in milliseconds at a million clients.
    virtual_shards: bool = False
    virtual_shard_min: int = 16  # virtual regime: smallest client shard
    virtual_shard_max: int = 64  # virtual regime: largest client shard
    hydration_cache: int | None = None  # LRU capacity for hydrated Client
    #   objects (None = cohort size, clamped to the pool's default bounds)

    # Environment
    partition: str = "dirichlet"  # dirichlet | iid | shard
    volume_override_bits: float | None = None  # simulate a paper-scale model volume
    include_downlink: bool = False  # add broadcast (downlink) time to round metrics
    time_varying_links: bool = False
    link_volatility: float = 0.1
    seed: int = 0
    eval_every: int = 1  # evaluate test accuracy every k rounds

    # Execution engine (repro.exec): how the round's client work runs.
    backend: str = "serial"  # "serial" | "thread" | "process"
    workers: int | None = None  # parallel worker count (None = auto)

    # Virtual-clock protocol (repro.simtime): when client work *lands*.
    mode: str = "sync"  # "sync" | "semisync" | "async"
    buffer_size: int | None = None  # async: aggregate every K arrivals (None = ⌈M/2⌉)
    concurrency: int | None = None  # async: in-flight clients M (None = clients_per_round)
    staleness_exponent: float = 0.5  # async/carryover weight = (1+s)^-a (FedBuff a=1/2)
    deadline_s: float | None = None  # semisync: fixed round deadline (None = per-round
    #   deadline_quantile over the selected clients' predicted finish times)
    late_policy: str = "carryover"  # semisync: late updates "carryover" | "drop"

    # Device compute heterogeneity (repro.simtime.profiles).
    compute_heterogeneity: float = 0.5  # lognormal sigma of per-client speed (0 = uniform)

    # Transport (repro.network.transport): how concurrent uploads share the
    # aggregation point's ingress. "none" = exclusive links (the paper's
    # Eq. 4 per-link pricing, the bit-for-bit seed semantics); "fair" =
    # server_ingress_mbps max-min fair-shared among in-flight uploads
    # (per edge aggregator under mode="hier"; edge→cloud backhaul then
    # contends on the cloud's own ingress).
    contention: str = "none"
    server_ingress_mbps: float | None = None  # required when contention="fair"

    # Hierarchy (repro.hier, mode="hier"): cloud → edge → client federation.
    # The defaults (one edge, free backhaul, one sub-round) make the
    # hierarchical protocol reproduce the flat Simulation bit-for-bit.
    num_edges: int = 1  # E edge aggregators between cloud and clients
    edge_assignment: str = "contiguous"  # how clients map to edges
    edge_rounds: int = 1  # K₁ client↔edge sub-rounds per cloud round
    edge_sync: str = "sync"  # edge sub-round barrier: lock-step | deadline-drop
    #   (semisync edges honor deadline_s/deadline_quantile; late updates
    #   always drop — lock-step sub-rounds have no window to carry into)
    backhaul_bandwidth_mbps: float | None = None  # median edge↔cloud bandwidth (None = free)
    backhaul_latency_s: float = 0.0  # median edge↔cloud latency
    backhaul_heterogeneity: float = 0.0  # lognormal sigma of per-edge backhaul draws

    # Adversarial robustness (repro.robust). adversary=None with zero fault
    # probabilities and aggregator="mean" is the exact honest-path contract:
    # no extra RNG draws, bit-identical histories with every prior PR.
    adversary: str | None = None  # byzantine behavior, one of ADVERSARIES
    adversary_fraction: float = 0.0  # expected fraction of adversarial clients
    adversary_scale: float = 10.0  # λ for adversary="scaled" (delta ×= λ)
    aggregator: str = "mean"  # server aggregation rule, one of AGGREGATORS
    trim_beta: float = 0.1  # trimmed_mean: trim ⌊β·n⌋ per tail (β < 0.5)
    clip_tau: float | None = None  # norm_clip: L2 radius (required by that aggregator)
    drop_prob: float = 0.0  # per-upload probability the payload is lost in flight
    truncate_prob: float = 0.0  # per-upload probability the payload arrives truncated
    edge_crash_prob: float = 0.0  # hier: per-(round, edge) aggregator crash probability

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        # Names resolved deep inside the first round (dataset and model
        # registries, Eq. 6 Norm(), the BCRS benchmark rule): a typo must
        # fail here, naming the field, not as a bare KeyError mid-sweep.
        for name, known in (
            ("dataset", tuple(DATASET_SPECS)),
            ("model", tuple(MODEL_BUILDERS)),
            ("norm_mode", NORM_MODES),
            ("benchmark", BENCHMARK_RULES),
        ):
            if getattr(self, name) not in known:
                raise ValueError(f"{name} must be one of {known}, got {getattr(self, name)!r}")
        check_fraction("participation", self.participation)
        check_fraction("compression_ratio", self.compression_ratio)
        if self.compressor is not None:
            from repro.compression.registry import available_compressors

            names = available_compressors()
            if self.compressor not in names:
                raise ValueError(
                    f"compressor must be one of {names}, got {self.compressor!r}"
                )
            if self.algorithm == "fedavg":
                raise ValueError(
                    "compressor override requires a compressing algorithm "
                    "(fedavg uploads dense by definition); pick e.g. 'topk'"
                )
        check_positive("beta", self.beta)
        check_positive("lr", self.lr)
        check_positive("alpha", self.alpha)
        check_positive("gamma", self.gamma)
        if not 0 <= self.server_momentum < 1:
            raise ValueError(f"server_momentum must be in [0, 1), got {self.server_momentum}")
        check_positive("link_volatility", self.link_volatility, strict=False)
        for name in (
            "num_clients", "rounds", "local_epochs", "batch_size", "num_train", "num_test",
            "eval_every", "required_overlap",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.partition not in ("dirichlet", "iid", "shard"):
            raise ValueError(f"unknown partition {self.partition!r}")
        for name in ("virtual_shard_min", "virtual_shard_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.virtual_shard_max < self.virtual_shard_min:
            raise ValueError(
                f"virtual_shard_max must be >= virtual_shard_min, got "
                f"{self.virtual_shard_max} < {self.virtual_shard_min}"
            )
        if self.hydration_cache is not None and self.hydration_cache < 1:
            raise ValueError(f"hydration_cache must be >= 1, got {self.hydration_cache}")
        if self.virtual_shards and self.time_varying_links:
            raise ValueError(
                "time_varying_links requires the partitioned regime: per-link "
                "drift state is O(fleet), which the virtual-shard regime "
                "exists to avoid"
            )
        if self.volume_override_bits is not None and (
            self.volume_override_bits <= 0 or self.volume_override_bits % 32
        ):
            # Uploads are priced at width V/32 (float32 entries), so V must
            # be a positive whole number of them.
            raise ValueError(
                "volume_override_bits must be a positive multiple of 32, got "
                f"{self.volume_override_bits}"
            )
        if self.proximal_mu < 0:
            raise ValueError(f"proximal_mu must be >= 0, got {self.proximal_mu}")
        if self.server_optimizer not in ("sgd", "adam"):
            raise ValueError(
                f"server_optimizer must be 'sgd' or 'adam', got {self.server_optimizer!r}"
            )
        check_fraction("deadline_quantile", self.deadline_quantile)
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.late_policy not in LATE_POLICIES:
            raise ValueError(
                f"late_policy must be one of {LATE_POLICIES}, got {self.late_policy!r}"
            )
        if self.mode == "async" and self.time_varying_links:
            # Link drift is a per-round process; async has no rounds to pin
            # it to. Refuse rather than silently freeze the links.
            raise ValueError(
                "time_varying_links is not supported in mode='async' — drift "
                "is defined per synchronized round; use mode='sync' or "
                "'semisync'"
            )
        if self.buffer_size is not None and self.buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {self.buffer_size}")
        if self.concurrency is not None and not 1 <= self.concurrency <= self.num_clients:
            raise ValueError(
                f"concurrency must be in [1, num_clients={self.num_clients}], "
                f"got {self.concurrency}"
            )
        if self.staleness_exponent < 0:
            raise ValueError(
                f"staleness_exponent must be >= 0, got {self.staleness_exponent}"
            )
        if self.deadline_s is not None:
            check_positive("deadline_s", self.deadline_s)
        check_positive("compute_heterogeneity", self.compute_heterogeneity, strict=False)
        if self.contention not in CONTENTION_MODES:
            raise ValueError(
                f"contention must be one of {CONTENTION_MODES}, got {self.contention!r}"
            )
        if self.server_ingress_mbps is not None:
            check_positive("server_ingress_mbps", self.server_ingress_mbps)
        if self.contention == "fair" and self.server_ingress_mbps is None:
            raise ValueError(
                "contention='fair' needs server_ingress_mbps (the shared "
                "ingress capacity to fair-share)"
            )
        if not 1 <= self.num_edges <= self.num_clients:
            raise ValueError(
                f"num_edges must be in [1, num_clients={self.num_clients}], "
                f"got {self.num_edges}"
            )
        if self.edge_assignment not in EDGE_ASSIGNMENTS:
            raise ValueError(
                f"edge_assignment must be one of {EDGE_ASSIGNMENTS}, "
                f"got {self.edge_assignment!r}"
            )
        if self.edge_rounds < 1:
            raise ValueError(f"edge_rounds must be >= 1, got {self.edge_rounds}")
        if self.edge_sync not in EDGE_SYNC_MODES:
            raise ValueError(
                f"edge_sync must be one of {EDGE_SYNC_MODES}, got {self.edge_sync!r}"
            )
        if self.backhaul_bandwidth_mbps is not None:
            check_positive("backhaul_bandwidth_mbps", self.backhaul_bandwidth_mbps)
        check_positive("backhaul_latency_s", self.backhaul_latency_s, strict=False)
        check_positive("backhaul_heterogeneity", self.backhaul_heterogeneity, strict=False)
        if self.adversary is not None and self.adversary not in ADVERSARIES:
            raise ValueError(
                f"adversary must be one of {ADVERSARIES}, got {self.adversary!r}"
            )
        check_positive("adversary_scale", self.adversary_scale)
        if self.aggregator not in AGGREGATORS:
            raise ValueError(
                f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}"
            )
        if not 0 <= self.trim_beta < 0.5:
            raise ValueError(f"trim_beta must be in [0, 0.5), got {self.trim_beta}")
        if self.clip_tau is not None:
            check_positive("clip_tau", self.clip_tau)
        if self.aggregator == "norm_clip" and self.clip_tau is None:
            raise ValueError("aggregator='norm_clip' needs clip_tau (the L2 clip radius)")
        for name, prob in (
            ("adversary_fraction", self.adversary_fraction),
            ("drop_prob", self.drop_prob),
            ("truncate_prob", self.truncate_prob),
            ("edge_crash_prob", self.edge_crash_prob),
        ):
            # Probabilities, not fractions: 0 (the honest default) is legal.
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {prob}")
        if self.drop_prob + self.truncate_prob > 1.0:
            raise ValueError(
                "drop_prob + truncate_prob must be <= 1, got "
                f"{self.drop_prob} + {self.truncate_prob}"
            )
        if self.mode == "hier" and (self.drop_prob > 0.0 or self.truncate_prob > 0.0):
            raise ValueError(
                "drop_prob/truncate_prob are not supported in mode='hier' — "
                "edge failures are modeled by edge_crash_prob"
            )

    @property
    def clients_per_round(self) -> int:
        """|S_t| = max(1, round(N·C))."""
        return max(1, int(round(self.num_clients * self.participation)))

    @property
    def async_concurrency(self) -> int:
        """Async mode's in-flight client count M (default: |S_t|)."""
        return self.clients_per_round if self.concurrency is None else self.concurrency

    @property
    def async_buffer_size(self) -> int:
        """Async mode's aggregation buffer K (default: ⌈M/2⌉).

        Every arrival re-dispatches a client, so any K >= 1 makes progress;
        K larger than the concurrency M just means some buffered updates
        span several dispatch generations.
        """
        return -(-self.async_concurrency // 2) if self.buffer_size is None else self.buffer_size

    def with_(self, **overrides) -> "ExperimentConfig":
        """Functional update (configs are frozen)."""
        return replace(self, **overrides)
