"""Named scenario registry: the simulator's cross-feature showcase.

Each built-in composes several orthogonal axes — round protocol, hierarchy,
transport contention, compressor, link/compute heterogeneity, partition —
into one named, documented experiment. The registry is the single source of
truth for ``docs/SCENARIOS.md`` (regenerated by
``scripts/generate_scenarios_md.py``, so the cookbook cannot drift from the
code), for the CLI ``scenario`` subcommand, and for the CI smoke matrix.

Register your own with :func:`register_scenario`; specs are validated at
registration time (every override is typed through the config's field
types, and the composed ``ExperimentConfig`` must construct).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ScenarioRegistry",
    "register_scenario",
    "get_scenario",
    "REGISTRY",
]


class ScenarioRegistry:
    """Name → :class:`ScenarioSpec` mapping with eager validation."""

    def __init__(self):
        self._specs: dict[str, ScenarioSpec] = {}

    def register(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Add ``spec``; its config must construct. Duplicate names refuse."""
        if spec.name in self._specs:
            raise ValueError(f"scenario {spec.name!r} already registered")
        spec.to_config()  # cross-field validation happens here
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ScenarioSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; available: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        """Registered names, in registration order."""
        return list(self._specs)

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self._specs.values())

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide default registry (the built-ins below live here).
REGISTRY = ScenarioRegistry()


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Register ``spec`` in the default registry."""
    return REGISTRY.register(spec)


def get_scenario(name: str) -> ScenarioSpec:
    """Fetch a scenario from the default registry by name."""
    return REGISTRY.get(name)


# --------------------------------------------------------------------------
# Built-ins. Budgets are bench-scale (a full run ≈ the quickstart); override
# rounds/seed at the CLI for smokes and sweeps. Every scenario composes at
# least two feature axes that no single-feature test exercises together.
# --------------------------------------------------------------------------

register_scenario(ScenarioSpec(
    name="paper-baseline",
    description=(
        "The paper's Table 2 anchor cell: BCRS+OPWA on synthetic CIFAR-10 "
        "under Dirichlet heterogeneity (β=0.5) at CR*=0.1, lock-step "
        "synchronous rounds, exclusive links. Every other scenario is a "
        "perturbation of this one."
    ),
    expected=(
        "Accuracy approaches dense FedAvg at a tenth of the upload budget; "
        "BCRS equalizes per-round finish times at the slowest client."
    ),
    tags=("sync", "paper"),
    overrides=dict(
        algorithm="bcrs_opwa", compression_ratio=0.1, beta=0.5,
        rounds=40, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="straggler-storm",
    description=(
        "A deadline-driven fleet melting down: semi-synchronous rounds with "
        "a tight deadline (60th percentile of predicted finishes), "
        "late updates dropped, device compute speeds spread over a wide "
        "lognormal (σ=1.2), and all surviving uploads contending for a "
        "2 Mbit/s fair-shared server ingress. Exercises "
        "semisync × contention × compute heterogeneity together."
    ),
    expected=(
        "Throughput holds (rounds close at the deadline regardless of "
        "stragglers) but drops cost accuracy per round versus sync; the "
        "fair ingress stretches upload spans when arrivals bunch."
    ),
    tags=("semisync", "contention", "heterogeneity"),
    overrides=dict(
        algorithm="topk", compression_ratio=0.1, mode="semisync",
        deadline_quantile=0.6, late_policy="drop",
        compute_heterogeneity=1.2,
        contention="fair", server_ingress_mbps=2.0,
        rounds=40, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="edge-quantized",
    description=(
        "Hierarchical cloud–edge–client federation whose client→edge "
        "uplinks carry 8-bit QSGD-quantized updates: three edge "
        "aggregators over a 100 Mbit/s backhaul, clients placed by "
        "bandwidth so each edge's BCRS benchmark is tight. Exercises "
        "hier × quantized-compressor override × payload-accurate pricing."
    ),
    expected=(
        "Uplink bytes fall ~4× versus 32-bit dense (the transport prices "
        "the emitted 8-bit payloads); accuracy is near the sparse baseline "
        "since QSGD's rounding is unbiased."
    ),
    tags=("hier", "quantized", "transport"),
    overrides=dict(
        algorithm="topk", compressor="qsgd8", mode="hier",
        num_edges=3, edge_assignment="bandwidth", edge_rounds=1,
        backhaul_bandwidth_mbps=100.0, backhaul_latency_s=0.01,
        rounds=30, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="diurnal-churn",
    description=(
        "A day/night fleet under FedBuff: fully-asynchronous buffered "
        "aggregation with only 3 clients in flight out of 10, heavy-tailed "
        "device speeds (σ=1.0) so 'daytime' devices cycle many times per "
        "'overnight' device upload, and staleness-discounted weights "
        "absorbing the churn. Exercises async × concurrency limit × "
        "staleness weighting."
    ),
    expected=(
        "Fast devices dominate arrival counts but staleness discounting "
        "keeps slow devices' contributions bounded; virtual "
        "time-to-accuracy beats sync, whose barrier waits for the tail."
    ),
    tags=("async", "heterogeneity", "churn"),
    overrides=dict(
        algorithm="topk", compression_ratio=0.1, mode="async",
        concurrency=3, buffer_size=2, staleness_exponent=0.5,
        compute_heterogeneity=1.0,
        rounds=40, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="metro-contention",
    description=(
        "A metro cell at rush hour: synchronous BCRS rounds where every "
        "selected client's upload shares one 1.5 Mbit/s server ingress "
        "(max-min fair water-filling) instead of exclusive links. BCRS "
        "schedules ratios against the *last-mile* links, so the shared "
        "bottleneck stretches exactly the uploads BCRS enlarged. "
        "Exercises sync × fair contention × adaptive ratios."
    ),
    expected=(
        "Round spans exceed the exclusive-link prediction whenever "
        "concurrent uploads saturate the ingress; per-round finish times "
        "compress together (the pipe, not the slowest link, sets the pace)."
    ),
    tags=("sync", "contention"),
    overrides=dict(
        algorithm="bcrs", compression_ratio=0.1, alpha=0.3,
        contention="fair", server_ingress_mbps=1.5,
        rounds=40, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="wan-hierarchy",
    description=(
        "A wide-area deployment: four edge aggregators running two "
        "client↔edge sub-rounds per cloud round, semi-synchronous edge "
        "barriers (80th-percentile deadline, stragglers dropped per "
        "sub-round), and a constrained 20 Mbit/s / 50 ms backhaul with "
        "per-edge lognormal spread. Exercises hier × semisync edges × "
        "backhaul pricing."
    ),
    expected=(
        "Backhaul time becomes a visible fraction of each cloud round; "
        "edge-local sub-rounds keep client uploads short, so total "
        "virtual time beats flat sync on the same seed."
    ),
    tags=("hier", "semisync", "transport"),
    overrides=dict(
        algorithm="bcrs_opwa", compression_ratio=0.1, mode="hier",
        num_edges=4, edge_rounds=2, edge_sync="semisync",
        deadline_quantile=0.8,
        backhaul_bandwidth_mbps=20.0, backhaul_latency_s=0.05,
        backhaul_heterogeneity=0.3,
        rounds=25, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="extreme-noniid",
    description=(
        "Pathological label skew at extreme compression: shard "
        "partitioning (each client sees ~2 classes) with CR*=0.01, where "
        "~90% of retained indices are singletons and uniform averaging "
        "shrinks them by 1/|S_t|. The regime OPWA was built for. "
        "Exercises partition × OPWA × deep compression."
    ),
    expected=(
        "Plain TopK collapses; BCRS+OPWA's γ-enlarged singleton "
        "coordinates recover most of the FedAvg gap (paper Fig. 4 / "
        "Table 2's CR=0.01 columns)."
    ),
    tags=("sync", "partition", "compression"),
    overrides=dict(
        algorithm="bcrs_opwa", compression_ratio=0.01, gamma=7.0,
        partition="shard",
        rounds=40, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="flaky-links",
    description=(
        "Per-round link drift under carryover semisync: every client's "
        "bandwidth random-walks ±35% per round while error-feedback TopK "
        "keeps a residual of what compression dropped, and updates missing "
        "the deadline carry over stale instead of dropping. Exercises "
        "time-varying links × error feedback × carryover staleness."
    ),
    expected=(
        "Round spans wobble with the link draws; carryovers appear as "
        "nonzero mean staleness and error feedback holds accuracy close "
        "to the static-link run."
    ),
    tags=("semisync", "links", "compression"),
    overrides=dict(
        algorithm="eftopk", compression_ratio=0.1, mode="semisync",
        late_policy="carryover", deadline_quantile=0.7,
        time_varying_links=True, link_volatility=0.35,
        rounds=40, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="drift-guard-async",
    description=(
        "Asynchronous FL hardened against client drift: FedBuff "
        "aggregation driving a server-side Adam step (FedAdam, η_s=0.1) "
        "while each client regularizes toward the model it downloaded "
        "(FedProx μ=0.01). Staleness and heterogeneity both push updates "
        "off-manifold; the two guards pull back. Exercises async × server "
        "optimizer × proximal local training."
    ),
    expected=(
        "Smoother accuracy curves than plain async SGD on the same seed; "
        "the Adam step tames the variance of small stale buffers."
    ),
    tags=("async", "optimizer"),
    overrides=dict(
        algorithm="topk", compression_ratio=0.1, mode="async",
        buffer_size=3, server_optimizer="adam", server_step=0.1,
        proximal_mu=0.01,
        rounds=40, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="mega-fleet",
    description=(
        "Fleet scale at its name: one million clients at 1% participation "
        "(|S_t|=10,000) over the struct-of-arrays population table "
        "(repro.population). Virtual shards — each client's 16–64-sample "
        "shard is a counter-seeded draw from a shared 4096-sample corpus — "
        "keep construction at O(columns) milliseconds, and the LRU "
        "hydration pool keeps resident memory at O(cohort). BCRS+OPWA "
        "schedules over the cohort's 10K links each round. The config to "
        "pair with backend='process' for hardware-saturating sweeps. "
        "Exercises fleet scale × virtual shards × lazy hydration."
    ),
    expected=(
        "Construction completes in milliseconds and memory stays flat in "
        "fleet size (the population is four numpy columns); each round "
        "hydrates only sampled clients, so a laptop-class machine "
        "completes seeded rounds at N=1e6."
    ),
    tags=("sync", "scale", "population"),
    overrides=dict(
        algorithm="bcrs_opwa", compression_ratio=0.1, gamma=8.0,
        num_clients=1_000_000, participation=0.01,
        virtual_shards=True, virtual_shard_min=16, virtual_shard_max=64,
        hydration_cache=256,
        rounds=2, num_train=4096, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="byzantine-storm",
    description=(
        "Sign-flipping byzantine clients at fleet scale: 30% of clients "
        "(a pure function of the seed, drawn per client from a dedicated "
        "counter stream) negate their update before upload, while the "
        "server aggregates with a coordinate-wise trimmed mean (β=0.2) "
        "instead of the weighted mean. Exercises adversary injection × "
        "robust aggregation × sparse updates."
    ),
    expected=(
        "Under the plain weighted mean the same attack stalls or reverses "
        "learning; the trimmed mean discards the per-coordinate extremes "
        "the flipped updates create and retains most honest accuracy."
    ),
    tags=("sync", "robust", "adversary"),
    overrides=dict(
        algorithm="bcrs_opwa", compression_ratio=0.1,
        adversary="sign_flip", adversary_fraction=0.3,
        aggregator="trimmed_mean", trim_beta=0.2,
        rounds=40, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="poisoned-edge",
    description=(
        "Data poisoning inside a hierarchy: 25% of clients train on "
        "label-flipped shards (one label-inverted view of the corpus, so "
        "virtual shards stay O(1) and the cached corpus is untouched) spread "
        "across three edge aggregators, with every aggregation point — "
        "edges and cloud alike — using the coordinate median. Exercises "
        "label poisoning × hier × robust aggregation."
    ),
    expected=(
        "Poisoned gradients are diluted twice: the per-edge median "
        "suppresses the minority of flipped-label updates within each "
        "group, and the cloud average mixes mostly-clean edge models; "
        "accuracy degrades gracefully rather than collapsing."
    ),
    tags=("hier", "robust", "adversary"),
    overrides=dict(
        algorithm="bcrs_opwa", compression_ratio=0.1, mode="hier",
        num_edges=3, edge_rounds=2,
        adversary="label_flip", adversary_fraction=0.25,
        aggregator="median",
        rounds=25, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="lossy-uplink",
    description=(
        "A lossy last mile: every upload is dropped in flight with "
        "probability 0.15 or truncated (a surviving prefix of the sparse "
        "payload, re-priced at its delivered bits) with probability 0.25, "
        "while error-feedback TopK re-queues what compression dropped — "
        "but not what the network lost. Exercises transport fault "
        "injection × error feedback × payload-accurate pricing."
    ),
    expected=(
        "The flow ledger shows delivered uplink bits below the emitted "
        "volume; rounds losing every upload leave the model unchanged "
        "(num_participants=0) and convergence slows roughly in proportion "
        "to the delivered fraction."
    ),
    tags=("sync", "robust", "faults", "transport"),
    overrides=dict(
        algorithm="eftopk", compression_ratio=0.1,
        drop_prob=0.15, truncate_prob=0.25,
        rounds=40, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))

register_scenario(ScenarioSpec(
    name="edge-crash-recovery",
    description=(
        "Edge aggregators that fail mid-deployment: each of four edges "
        "crashes in any given cloud round with probability 0.25 (a "
        "counter-RNG fate per (round, edge)), contributing no sub-rounds "
        "and no backhaul; the cloud renormalizes the surviving edges' "
        "data-size weights and a round losing every edge leaves the model "
        "unchanged. Exercises hier × crash faults × cloud-side recovery."
    ),
    expected=(
        "Rounds with crashes show fewer participants and shorter backhaul "
        "ledgers; accuracy tracks the fault-free hierarchy closely since "
        "surviving edges are reweighted rather than averaged against "
        "stale zeros."
    ),
    tags=("hier", "robust", "faults"),
    overrides=dict(
        algorithm="bcrs_opwa", compression_ratio=0.1, mode="hier",
        num_edges=4, edge_rounds=2, edge_crash_prob=0.25,
        rounds=25, num_train=1200, num_test=400, eval_every=2, lr=0.1,
    ),
))
