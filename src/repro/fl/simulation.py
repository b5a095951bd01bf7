"""The federated simulation engine — Algorithm 1 end to end.

One :class:`Simulation` owns the dataset, partition, client pool, network
links, global model and algorithm, and advances round by round:

1. sample the client set ``S_t`` (Alg. 1 line 7);
2. the algorithm plans ratios/coefficients (BCRS, Alg. 2);
3. the round's communication times are scored with the Sec. 5.2 metrics
   (uploads are priced from their compressor's declared wire size);
4. the selected clients train locally from ``w_t`` (lines 9–11, 21–27) and
   compress their updates (line 12) on a pluggable execution backend
   (:mod:`repro.exec`: serial or a forked process pool, bit-identical),
   and the server folds each upload into the aggregate as
   it arrives (lines 14–18, with the OPWA mask of Alg. 3 when enabled) — a
   round holds O(d), not its cohort's updates;
5. the new global model is evaluated and the round is recorded.

Each step is one ``Simulation`` method (the *round stages*); the other three
centralised protocols assemble their rounds from the same methods.

The simulation also owns the execution backend's lifecycle: the backend is
built lazily on first use (serial runs stay free), parallel workers fork
the simulation's own worker context, and ``close()`` is **permanent**.
Parallel backends advance per-client state (batch-loader RNG streams,
error-feedback residuals) inside their workers, so the parent's copies go
stale the moment a round runs. Re-creating a backend after ``close()``
would silently replay that stale state — instead any further backend
access raises, and a fresh simulation must be built.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedUpdate, SparseUpdate
from repro.compression.registry import wire_size
from repro.core.aggregation import ROW_RULES, CohortFold
from repro.core.arena import AggregationArena, check_rows
from repro.core.overlap import OverlapDistribution
from repro.core.server_opt import make_server_optimizer
from repro.data.datasets import DATASET_SPECS
from repro.exec import (
    ClientTask,
    ExecutionBackend,
    TaskResult,
    TrainSpec,
    WorkerContext,
    make_backend,
)
from repro.fl.algorithms import Algorithm, RoundPlan, make_algorithm
from repro.fl.config import ExperimentConfig
from repro.fl.context import SimulationContext
from repro.fl.history import History, RoundComm, RoundRecord
from repro.fl.sampler import UniformSampler
from repro.network.cost import LinkSpec, model_bits
from repro.network.metrics import RoundTimes
from repro.network.links import TimeVaryingLink
from repro.network.transport import FaultInjector, Payload, Transport
from repro.obs import NULL_OBS, Obs
from repro.obs.tracer import trace_clock
from repro.nn.mlp import MLP
from repro.population import ClientPool, CompressorPool, default_cache_size
from repro.population.table import LinkColumns
from repro.robust.aggregators import robust_aggregate  # noqa: F401 — the list entry point, re-bound here by bench/layers.py
from repro.simtime.events import SpanLog
from repro.simtime.profiles import pipeline_times
from repro.utils.rng import RngFactory

__all__ = ["Simulation", "run_experiment"]


def build_config_model(config, seed) -> MLP:
    """The config's model (``config.model`` has one legal value, the MLP),
    sized by its dataset: flattened images in, one logit per class out."""
    spec = DATASET_SPECS[config.dataset]
    return MLP(spec.channels * spec.image_size * spec.image_size, spec.num_classes, seed=seed)


def fold_capacity(config) -> tuple[str, int]:
    """The most updates one aggregation can fold, and the field that sets it.

    A sync or hier round folds its cohort; an async window its buffer K; a
    semisync window with carryover its fresh cohort plus every late update
    that lands in it — at most one in flight per client, so the fleet.
    """
    if config.mode == "async":
        return "async_buffer_size", config.async_buffer_size
    if config.mode == "semisync" and config.late_policy == "carryover":
        return "num_clients", config.num_clients
    return "clients_per_round", config.clients_per_round


class Simulation:
    """A fully-seeded FL run; the round's client work runs on ``backend``.

    ``context`` is an optional :class:`~repro.fl.context.SimulationContext`
    carrying prebuilt dataset/partition/population products for this
    config's dataset key (cross-cell sweep caching). Without one the
    simulation builds its own through the same call, so seeded histories
    are bit-identical either way.
    """

    def __init__(
        self, config: ExperimentConfig, obs: Obs | None = None, context=None
    ):
        self.config = config
        # Observability is deliberately NOT part of ExperimentConfig — it
        # never affects the experiment, so it must not perturb spec hashes.
        self.obs = obs if obs is not None else NULL_OBS
        self._backend: ExecutionBackend | None = None
        self._engine_closed = False
        rngs = RngFactory(config.seed)

        # Data: the train/test splits, the client partition (none in the
        # virtual-shard regime) and the fleet's columns all come from the
        # context — a cached one (cross-cell sweep reuse) or one built here.
        # The streams it consumed are independent of every stream drawn
        # below, so nothing here shifts either way.
        if context is None:
            context = SimulationContext.build(config)
        context.check(config)
        self.train_set, self.test_set = context.train_set, context.test_set
        self.partition = context.partition

        # Model and the global parameters, a copy of its flat vector.
        self.model = build_config_model(config, seed=rngs.stream("model"))
        self.global_params = self.model.data.copy()
        self.dense_size = self.global_params.size
        if config.aggregator in ROW_RULES:
            field, capacity = fold_capacity(config)
            try:
                check_rows(capacity, self.dense_size)
            except ValueError as exc:
                raise ValueError(
                    f"aggregator={config.aggregator!r} densifies one float64 row per "
                    f"update an aggregation folds, up to {field}={capacity}: {exc}"
                ) from None
        # The timing simulation can price a paper-scale model (e.g. ResNet-18's
        # volume) while the trained model stays CPU-sized; the compression and
        # aggregation pipeline is identical either way.
        self.volume_bits = (
            config.volume_override_bits
            if config.volume_override_bits is not None
            else model_bits(self.dense_size)
        )

        # The fleet as a struct-of-arrays table: link/compute/size columns
        # for every client (O(fleet) bytes, not objects), with full Client
        # objects hydrated lazily for the sampled cohort only. The
        # partitioned regime replays the historical draw order, so seeded
        # runs reproduce the pre-population histories bit-for-bit.
        self.population = context.population
        cache = (
            config.hydration_cache
            if config.hydration_cache is not None
            else default_cache_size(config.clients_per_round)
        )
        self.clients = ClientPool(
            self.population,
            self.train_set,
            config.batch_size,
            cache_size=cache,
            label_flip_fraction=(
                config.adversary_fraction
                if config.adversary == "label_flip"
                else 0.0
            ),
        )
        self.clients.observe(self.obs)

        # Network links (paper Sec. 5.2): a lazy LinkSpec view over the
        # population columns, optionally drifting per round (drift state is
        # O(fleet), so the partitioned regime only — config enforces it).
        self.links: list[LinkSpec] | LinkColumns = self.population.links
        self._varying: list[TimeVaryingLink] | None = None
        if config.time_varying_links:
            link_rng = rngs.stream("link-drift")
            self._varying = [
                TimeVaryingLink(link, link_rng, volatility=config.link_volatility)
                for link in self.links
            ]

        # Device timing profiles (repro.simtime): per-client compute speed
        # drawn once into the population's columns, viewed as DeviceProfiles
        # on demand. Used to price each round's virtual-time span; the
        # event-driven protocols schedule from them directly.
        self.devices = self.population.devices
        self.spans = SpanLog()  # per-client train/upload intervals (trace timeline)
        self.sim_clock = 0.0  # virtual time at which the last round completed

        self.sampler = UniformSampler(
            config.num_clients, config.clients_per_round, seed=rngs.stream("sampler")
        )
        self.algorithm: Algorithm = make_algorithm(config)
        # config.compressor swaps the client compressor implementation under
        # a compressing algorithm (e.g. "qsgd8" quantized uplinks beneath
        # topk's uniform-ratio plan); None keeps the algorithm's default.
        comp_name = (
            config.compressor
            if config.compressor is not None
            else self.algorithm.compressor_name
        )
        # Stateful compressors hydrate on first use and persist forever (EF
        # residuals are client state); a stateless one is a single shared object.
        self.compressors = (
            CompressorPool(comp_name, self.population) if comp_name else None
        )

        # Unified transport (repro.network.transport): every transfer is
        # priced through it, each upload from its compressor's registered
        # wire size at the priced width — the trained one, or the float32
        # width of a paper-scale volume (volume_override_bits).
        self.transport = Transport.from_config(config)
        # Transport fault injection (None when both probabilities are zero —
        # the honest path performs no per-upload fate draws at all).
        self.faults = FaultInjector.from_config(config)
        self._comp_name = comp_name
        self._priced_width = (
            self.dense_size
            if config.volume_override_bits is None
            else int(config.volume_override_bits) // 32
        )

        # The server-side full-width buffers every aggregation reuses: the
        # float64 accumulator, the server-step scratch and the robust
        # aggregators' densified rows (updates own their arrays).
        self.arena = AggregationArena(self.dense_size)

        # Server optimizer over the aggregated pseudo-gradient (FedOpt family;
        # plain SGD with lr=server_step and no momentum is Algorithm 1 verbatim).
        self.server_opt = self._make_server_opt()

        self.history = History()
        self.round_index = 0
        #: The overlap of the most recent round's last aggregation (Fig. 4);
        #: None before it aggregates anything.
        self.last_overlap: OverlapDistribution | None = None

        self._train_spec = TrainSpec.from_config(config)
        self._commit_wall = trace_clock()  # wall instant of the previous commit

    # ------------------------------------------------------ execution engine

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend (created lazily so serial runs stay free)."""
        if self._engine_closed:
            raise RuntimeError(
                "simulation was closed; per-client state advanced inside the "
                "old backend's workers, so a new backend would replay stale "
                "state — build a fresh simulation instead"
            )
        if self._backend is None:
            self._backend = make_backend(
                self.config.backend,
                context=WorkerContext(self.clients, self.compressors, self.model),
                workers=self.config.workers,
            )
        return self._backend

    def _run_tasks(self, tasks, global_params, spec):
        """``backend.run_round`` plus observability: the one fan-out site.

        Yields the backend's results as they arrive, inside an ``exec.round``
        span when observability is live, and replays each task's wall-clock
        instants (stamped inside the worker by :meth:`WorkerContext.execute`)
        as ``client.train`` / ``client.compress`` spans on the worker's pid
        lane. perf_counter is process-shared on Linux, so worker timestamps
        line up with the parent trace without any clock translation.
        """
        stream = self.backend.run_round(tasks, global_params, spec)
        obs = self.obs
        if not obs.enabled:
            yield from stream
            return
        tracer, metrics = obs.tracer, obs.metrics
        train_hist = metrics.histogram("task_train_seconds")
        compress_hist = metrics.histogram("task_compress_seconds")
        with tracer.span("exec.round", cat="exec", tasks=len(tasks)):
            for r in stream:
                if r.wall_start:
                    lane = dict(cat="exec", tid=r.worker_pid, cid=r.cid)
                    tracer.name_lane(r.worker_pid, f"worker-{r.worker_pid}")
                    tracer.add_span("client.train", r.wall_start, r.wall_compress, **lane)
                    end = r.wall_compress + r.compress_seconds
                    tracer.add_span("client.compress", r.wall_compress, end, **lane)
                    metrics.counter("worker_busy_seconds", worker=r.worker_pid).inc(
                        r.train_seconds + r.compress_seconds
                    )
                train_hist.observe(r.train_seconds)
                compress_hist.observe(r.compress_seconds)
                yield r
        metrics.counter("tasks_executed").inc(len(tasks))

    def close(self) -> None:
        """Shut down backend workers and retire this simulation's engine.

        Idempotent; afterwards any backend access raises (see module note).
        """
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        self._engine_closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --------------------------------------------------------- round stages
    # (the stages of Algorithm 1 every protocol's round is assembled from —
    # this synchronous loop, the event-driven protocols in
    # repro.simtime.protocols and the hierarchy in repro.hier; a protocol
    # keeps only its own cohort choice, membership and barrier)

    def _begin_round(self) -> None:
        """Before anything is dispatched: forget the previous round's overlap
        and advance drifting links (fixed links: nothing to do)."""
        self.last_overlap = None
        if self._varying is not None:
            self.links = [tv.step() for tv in self._varying]

    def _plan_cohort(
        self, selected
    ) -> tuple[list[LinkSpec], RoundPlan, list[ClientTask]]:
        """Alg. 1 lines 8–12 up to dispatch: the cohort's current links, the
        algorithm's plan (BCRS, Alg. 2) over its data frequencies, and one
        task per member — each in selection order."""
        links = [self.links[i] for i in selected]
        # f_i = |D_i| / n over the selected set (Alg. 1 lines 8/13) — read
        # from the population columns so the parent never hydrates clients
        # (under the process backend, hydration belongs to the workers).
        sizes = self.population.sizes_of(selected)
        freqs = sizes / sizes.sum()
        with self.obs.tracer.span("plan", cat="sim"):
            plan = self.algorithm.plan(links, freqs, self.volume_bits)
        tasks = [
            ClientTask(
                position=pos,
                cid=int(cid),
                ratio=None if plan.ratios is None else float(plan.ratios[pos]),
            )
            for pos, cid in enumerate(selected)
        ]
        return links, plan, tasks

    def _make_server_opt(self):
        """One server optimizer per aggregation point (the hierarchical
        protocol builds one per edge with identical hyperparameters)."""
        cfg = self.config
        if cfg.server_optimizer == "sgd":
            return make_server_optimizer(
                "sgd", lr=cfg.server_step, momentum=cfg.server_momentum
            )
        return make_server_optimizer("adam", lr=cfg.server_step)

    def _aggregate_into(
        self, params: np.ndarray, server_opt, updates, weights, use_opwa: bool
    ) -> tuple[np.ndarray, float | None]:
        """Alg. 1 lines 14–18 against an explicit (params, optimizer) pair.

        ``updates`` — a held list, or a round's stream (:meth:`_stream`) —
        fold into the aggregate one at a time, each with its entry of
        ``weights``. Returns (stepped params, OPWA singleton-fraction
        diagnostic) — ``params`` and None when nothing was folded — for the
        global model, or an edge's with the mask scoped to the edge's updates.
        """
        cfg = self.config
        weights = np.asarray(weights, dtype=np.float64)
        rule = dict(aggregator=cfg.aggregator, trim_beta=cfg.trim_beta, clip_tau=cfg.clip_tau)
        fold = CohortFold(len(weights), self.arena, **rule)
        for i, update in enumerate(updates):
            fold.add(update, weights[i])
        if not fold.added:
            return params, None
        with self.obs.tracer.span("aggregate", cat="sim", contributions=fold.added):
            pseudo_grad = fold.finish(
                gamma=cfg.gamma if use_opwa else None, required_overlap=cfg.required_overlap
            )
            self.last_overlap = overlap = fold.overlap
            stepped = server_opt.step(
                params, pseudo_grad, out=params, scratch=self.arena.step_scratch
            )
        return stepped, (None if overlap is None else overlap.singleton_fraction())

    def _stream(self, tasks, params, members: list, fates: dict[int, float]):
        """Run ``tasks`` from ``params``, yielding as each result arrives the
        upload the server receives from each position in ``fates`` (whole, or
        truncated to its fault fraction); of every result only its
        :meth:`_member` scalars, appended to ``members``, outlive its turn."""
        for r in self._run_tasks(tasks, params, self._train_spec):
            members.append(self._member(r, r.update))
            frac = fates.get(r.position)
            if frac is not None:
                yield self._delivered_update(r, frac)

    @staticmethod
    def _delivered_update(result: TaskResult, frac: float) -> CompressedUpdate:
        """What the server receives of an upload :meth:`_delivers` passed:
        the whole update, or its prefix at fault fraction ``frac``
        (:meth:`FaultInjector.truncate`). An update too short to leave the
        entry its declaration promised would change the cohort the round
        already priced and weighted, so it is refused."""
        if frac >= 1.0:
            return result.update
        update = FaultInjector.truncate(result.update, frac)
        if update is None:
            raise RuntimeError(f"client {result.cid}'s update contradicts its declared wire size")
        return update

    @staticmethod
    def _member(result: TaskResult, update: CompressedUpdate) -> tuple[float, float, float, float]:
        """What a record keeps of one member: (loss, realized ratio — density
        if sparse, else 1.0 — train seconds, compress seconds)."""
        ratio = float(update.density) if isinstance(update, SparseUpdate) else 1.0
        return (result.mean_loss, ratio, result.train_seconds, result.compress_seconds)

    def _delivers(self, ratio: float | None, frac: float) -> bool:
        """Whether an upload with fault fraction ``frac`` leaves the server
        anything: all of it, or a sparse declaration truncated to at least one
        entry at the trained width (:meth:`FaultInjector.truncate`'s rule)."""
        if frac >= 1.0 or ratio is None:
            return frac >= 1.0
        entries, _, kind = wire_size(self._comp_name, self.dense_size, float(ratio))
        return kind == "sparse" and int(frac * entries) >= 1

    def _payload_for(self, ratio: float | None, frac: float = 1.0) -> Payload:
        """What one dispatch puts on the wire: its compressor's registered
        wire size (:func:`~repro.compression.registry.wire_size`) at the
        priced width, known before the update is trained; dense
        ``volume_bits`` without a compressor.

        ``frac`` is the fault fate's surviving fraction, applied as
        :meth:`FaultInjector.truncate` applies it: a sparse upload keeps
        ``int(frac·entries)`` entries; fewer than one, or any other kind,
        is a drop, billed at full size (a drop's ``frac`` is 0).
        """
        if ratio is None:
            return Payload.dense(self.volume_bits)
        entries, entry_bits, kind = wire_size(self._comp_name, self._priced_width, float(ratio))
        kept = int(frac * entries)
        if kind == "sparse" and kept >= 1:
            entries = kept
        return Payload(bits=float(entries * entry_bits), kind=kind)

    def _stage_dispatch(
        self, cid: int, link: LinkSpec, ratio: float | None, frac: float = 1.0
    ) -> tuple[Payload, float, float, float]:
        """(payload, download, train, exclusive-upload) of one dispatch —
        the single pricing computation every protocol path shares.
        ``link`` is the client's *current* link, built once by the caller
        (per cohort per round; drifting links are re-read every round);
        ``frac`` the upload's fault fraction (:meth:`_payload_for`)."""
        cfg = self.config
        payload = self._payload_for(ratio, frac)
        if self.obs.enabled:
            self.obs.metrics.counter("wire_bits", kind=payload.kind).inc(payload.bits)
        down, train_t, up = pipeline_times(
            self.devices.with_link(cid, link),
            volume_bits=self.volume_bits,
            num_samples=int(self.population.data_sizes[cid]),
            epochs=cfg.local_epochs,
            include_downlink=cfg.include_downlink,
            payload=payload,
        )
        return payload, down, train_t, up

    def _price_dispatch(
        self,
        cid: int,
        link: LinkSpec,
        ratio: float | None,
        t: float,
        tag: int,
        frac: float = 1.0,
    ) -> tuple[float, float, float, Payload]:
        """(download, train, upload, payload) of one dispatch at ``t``.

        Upload time is the *exclusive-link* price; contended transports
        resolve the real finish later (the upload span is then logged at
        resolution, not here).
        """
        payload, down, train_t, up = self._stage_dispatch(cid, link, ratio, frac)
        t0 = t + down
        self.spans.add(cid, "train", t0, t0 + train_t, tag=tag)
        if not self.transport.contended:
            self.spans.add(cid, "upload", t0 + train_t, t0 + train_t + up, tag=tag)
        return down, train_t, up, payload

    def _price_round(
        self,
        selected,
        links: list[LinkSpec],
        ratios,
        fracs: list[float] | None,
        t: float,
        tag: int,
    ) -> tuple[list[float], list[float], list[float]]:
        """Price one synchronized batch of dispatches starting at ``t``.

        ``links`` are the cohort's current links and ``fracs`` their fault
        fractions (None: every upload delivered), aligned with ``selected``.
        Returns (per-dispatch pipeline durations, uplink bits, downlink
        bits), aligned the same way. Exclusive transports keep the
        historical per-link arithmetic bit-for-bit; fair transports admit
        every upload into one fresh ingress epoch and water-fill, so the
        round's finish times reflect server-side bandwidth sharing.
        """
        cfg = self.config
        with self.obs.tracer.span("transport.price", cat="net", dispatches=len(selected)):
            staged = []
            for pos, cid in enumerate(selected):
                cid = int(cid)
                ratio = None if ratios is None else float(ratios[pos])
                frac = 1.0 if fracs is None else fracs[pos]
                link = links[pos]
                payload, down, train_t, up = self._stage_dispatch(cid, link, ratio, frac)
                staged.append((cid, link, payload, down, train_t, up))

            ends: list[float] | None = None
            if self.transport.contended:
                flows = [
                    (payload, link, (t + down) + train_t)
                    for _, link, payload, down, train_t, _ in staged
                ]
                with self.obs.tracer.span("transport.resolve", cat="net", flows=len(flows)):
                    ends = [rec.end for rec in self.transport.resolve_uploads(flows)]

            durations: list[float] = []
            up_bits: list[float] = []
            for pos, (cid, _, payload, down, train_t, up) in enumerate(staged):
                t0 = t + down
                self.spans.add(cid, "train", t0, t0 + train_t, tag=tag)
                if ends is None:
                    self.spans.add(cid, "upload", t0 + train_t, t0 + train_t + up, tag=tag)
                    durations.append(down + train_t + up)
                else:
                    self.spans.add(cid, "upload", t0 + train_t, ends[pos], tag=tag)
                    durations.append(ends[pos] - t)
                up_bits.append(payload.bits)
            down_bits = [self.volume_bits if cfg.include_downlink else 0.0] * len(staged)
            return durations, up_bits, down_bits

    @staticmethod
    def _add_bits(ledger: dict[int, float], ids, bits) -> dict[int, float]:
        """Accumulate per-endpoint ``bits`` into ``ledger`` (ids may repeat)."""
        for cid, b in zip(ids, bits):
            ledger[int(cid)] = ledger.get(int(cid), 0.0) + b
        return ledger

    # ------------------------------------------------------------------ round

    def run_round(self) -> RoundRecord:
        """Advance one communication round and return its record."""
        with self.obs.tracer.span("round", cat="sim", round=self.round_index):
            return self._sync_round()

    def _sync_round(self) -> RoundRecord:
        with self.obs.tracer.span("sample", cat="sim"):
            selected = self.sampler.sample()
        self._begin_round()
        links, plan, tasks = self._plan_cohort(selected)

        # Transport fault injection: each upload's fate is a pure function of
        # (seed, round, cid), so fates are backend-invariant, and whether a
        # truncation leaves anything decodable follows from the declared wire
        # size — so fates, prices and the delivered cohort are known before
        # dispatch. A fate's fraction is 1 on delivery and 0 on a drop.
        fracs: list[float] | None = None
        if self.faults is not None:
            fracs = [self.faults.fate(self.round_index, int(cid))[1] for cid in selected]
        surv = [
            pos for pos, t in enumerate(tasks) if fracs is None or self._delivers(t.ratio, fracs[pos])
        ]

        # Virtual-clock span: the synchronous barrier releases when the
        # slowest *aggregated* client has downloaded, computed, and
        # uploaded. Clients the plan zero-weighted (deadline_topk drops
        # stragglers) still burn device time — their spans are logged —
        # but the server does not wait for them. Uploads are priced through
        # the transport from their compressor's declared wire size; with
        # fair contention the round is one shared-ingress epoch.
        sim_start = self.sim_clock
        durations, up_bits, down_bits = self._price_round(
            selected, links, plan.ratios, fracs, sim_start, tag=self.round_index
        )
        # The barrier waits on delivered contributors; an all-lost round
        # still spans the slowest expected upload (the server's timeout).
        barrier = surv if surv else range(len(selected))
        round_span = max((durations[pos] for pos in barrier if plan.weights[pos] > 0), default=0.0)

        # Local training + compression (lines 11–12) on the execution
        # backend, each delivered upload folded into the OPWA-masked
        # aggregate (lines 14–18) as it arrives — weights renormalized when
        # uploads were lost. A round that loses every upload is well-defined:
        # the model is unchanged and the record carries num_participants=0.
        weights = plan.weights
        if len(surv) < len(selected):
            weights = np.asarray([plan.weights[pos] for pos in surv], dtype=np.float64)
            if weights.sum() > 0:
                weights = weights / weights.sum()
        members: list = []
        fates = {pos: 1.0 if fracs is None else fracs[pos] for pos in surv}
        stream = self._stream(tasks, self.global_params, members, fates)
        self.global_params, singleton = self._aggregate_into(
            self.global_params, self.server_opt, stream, weights, self.algorithm.use_opwa
        )
        return self._commit(
            selected=selected,
            members=members,
            times=plan.times,
            weights=plan.weights,
            singleton=singleton,
            sim_start=sim_start,
            sim_end=sim_start + round_span,
            comm=RoundComm.from_maps(
                uplink=self._add_bits({}, selected, up_bits),
                downlink=self._add_bits({}, selected, down_bits),
            ),
            num_participants=(len(surv) if self.faults is not None else None),
        )

    def _commit(
        self,
        *,
        selected,
        members: list[tuple[float, float, float, float]],
        times: RoundTimes,
        weights,
        singleton: float | None,
        sim_start: float,
        sim_end: float,
        comm: RoundComm,
        mean_staleness: float = 0.0,
        num_participants: int | None = None,
        edge_breakdown=None,
    ) -> RoundRecord:
        """Close a round: evaluate on cadence, append its record, advance the
        round index and the virtual clock, write the round-end metrics.

        ``members`` are the :meth:`_member` scalars of the tasks the record's
        loss, realized ratios and wall-clock sums range over.
        """
        cfg = self.config
        # Evaluation cadence: every ``eval_every`` rounds plus the last.
        if self.round_index % cfg.eval_every == 0 or self.round_index == cfg.rounds - 1:
            with self.obs.tracer.span("evaluate", cat="sim"):
                test_acc = self.evaluate()
        else:
            test_acc = None
        record = RoundRecord(
            round_index=self.round_index,
            selected=tuple(int(i) for i in selected),
            train_loss=float(np.mean([m[0] for m in members])) if members else 0.0,
            test_accuracy=test_acc,
            times=times,
            ratios=tuple(m[1] for m in members),
            weights=tuple(float(w) for w in weights),
            singleton_fraction=singleton,
            train_seconds=sum((m[2] for m in members), 0.0),
            compress_seconds=sum((m[3] for m in members), 0.0),
            sim_start=sim_start,
            sim_end=sim_end,
            mean_staleness=mean_staleness,
            edge_breakdown=edge_breakdown,
            comm=comm,
            num_participants=num_participants,
        )
        self.history.append(record)
        self.round_index += 1
        self.sim_clock = sim_end
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("rounds_completed").inc()
            # Round rate as the wall time between consecutive commits.
            now = trace_clock()
            if now > self._commit_wall:
                metrics.gauge("rounds_per_second").set(1.0 / (now - self._commit_wall))
            self._commit_wall = now
            metrics.snapshot(record.round_index)
        return record

    def run(self, rounds: int | None = None) -> History:
        """Run ``rounds`` (default: the configured count) and return history."""
        total = self.config.rounds if rounds is None else rounds
        for _ in range(total):
            self.run_round()
        return self.history

    # ------------------------------------------------------------------ eval

    def evaluate(self, batch_size: int = 256) -> float:
        """Test accuracy of the current global model."""
        np.copyto(self.model.data, self.global_params)
        correct = 0
        n = len(self.test_set)
        for start in range(0, n, batch_size):
            x = self.test_set.x[start : start + batch_size]
            y = self.test_set.y[start : start + batch_size]
            logits = self.model(x, training=False)
            correct += int((logits.argmax(axis=1) == y).sum())
        return correct / n


def run_experiment(
    config: ExperimentConfig, obs: Obs | None = None, context=None
) -> History:
    """Convenience: build and run a full simulation, releasing its workers.

    Honors ``config.mode`` — event-driven protocols run when it says so.
    ``context`` optionally supplies a prebuilt
    :class:`~repro.fl.context.SimulationContext` (cross-cell caching);
    histories are bit-identical with or without one.
    """
    from repro.simtime import make_simulation

    with make_simulation(config, obs=obs, context=context) as sim:
        return sim.run()
