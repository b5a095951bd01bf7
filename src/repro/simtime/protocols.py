"""Event-driven federated protocols: async (FedBuff) and semi-sync rounds.

Both protocols reuse the seeded construction of
:class:`~repro.fl.simulation.Simulation` (data, partition, model, links,
compressors, server optimizer) and replace the lock-step round loop with a
virtual clock:

- a *dispatch* hands a client the current global model; its local training
  runs later, batched with the window's other dispatches through the
  execution backend (the numerical result does not depend on virtual time,
  only on the model snapshot);
- the *virtual cost* of that dispatch — download + compute + upload — is
  priced from the client's current link and training speed
  (:meth:`Simulation._stage_dispatch`) through the unified transport (:mod:`repro.network.transport`): the
  download/compute stages are exclusive, the upload enters the server's
  ingress pipe, which either resolves it immediately (``contention="none"``,
  Eq. 4 on the payload's exact bits) or water-fills it against every other
  in-flight upload (``contention="fair"``);
- the server reacts to upload completions: :class:`AsyncSimulation`
  aggregates every ``buffer_size`` arrivals with staleness-discounted
  weights (FedBuff), :class:`SemiSyncSimulation` closes each round at a
  deadline and lets late updates carry over (stale) or drop.

Determinism: dispatch order, arrival order, and aggregation membership are
pure functions of the config seed (completion ties break by admission
order), so seeded runs are bit-identical across serial/process
backends — the same contract :mod:`repro.exec` enforces for the synchronous
engine, extended to contended transfers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.exec import ClientTask, TaskResult
from repro.fl.config import ExperimentConfig
from repro.fl.history import RoundComm, RoundRecord
from repro.fl.simulation import Simulation
from repro.network.cost import LinkSpec
from repro.network.metrics import RoundTimes
from repro.network.transport import Payload
from repro.utils.rng import RngFactory

__all__ = ["AsyncSimulation", "SemiSyncSimulation"]

#: Arrival-inclusion tolerance: an upload finishing exactly at the deadline
#: (up to float rounding) still makes the round.
_EPS = 1e-9


def _idle_ids(positions, busy: set[int]) -> list[int]:
    """The ids at ascending ``positions`` among the ids not in ``busy``: j plus the busy
    ids at most j idle ids precede, counted over the sorted busy set, not the fleet."""
    taken = np.sort(np.fromiter(busy, np.int64, len(busy)))
    return (positions + np.searchsorted(taken - np.arange(taken.size), positions, "right")).tolist()


@dataclass
class _Pending:
    """One in-flight (dispatched, not yet aggregated) client update.

    ``result`` is deferred: the arrival *time* is a pure function of the
    client's link and speed, so training runs later (batched) from the
    parameters of ``version`` — which the server mutates only at
    aggregation, after every dispatch of that version is trained.
    """

    cid: int
    ratio: float | None
    version: int  # global-model version the client trained from
    t_arrival: float  # exclusive-link prediction; overwritten on contended pipes
    duration: float  # download + compute + upload (exclusive-link prediction)
    upload: float  # the communication (uplink) part alone
    downlink: float
    result: TaskResult | None = None
    payload: Payload | None = None  # what the upload puts on the wire
    fid: int = -1  # transport flow id of the upload
    up_start: float = 0.0  # when the upload entered the ingress
    #: Fault fraction, drawn at dispatch (pure function of (seed, dispatch
    #: seq, cid)): 1 delivered whole, 0 dropped, else truncated to it.
    frac: float = 1.0
    #: Whether the server receives anything (:meth:`Simulation._delivers`).
    delivers: bool = True


class _EventDrivenSimulation(Simulation):
    """Shared machinery: dispatch pipeline, staleness weighting, aggregation."""

    def __init__(self, config: ExperimentConfig, obs=None, context=None):
        super().__init__(config, obs=obs, context=context)
        # The server's ingress: upload completions come back from this pipe
        # in deterministic (finish, admission) order — exclusive links
        # reproduce the historical event-queue arrival order bit-for-bit,
        # fair contention water-fills the in-flight flows.
        self._pipe = self.transport.pipe()
        self._flights: dict[int, _Pending] = {}  # flow id → in-flight dispatch
        self._window_down: list[int] = []  # cids broadcast to since last record
        self.now = 0.0
        self.version = 0  # bumps once per aggregation
        self._untrained: list[_Pending] = []  # dispatched, not yet trained
        #: Per-dispatch fault-fate sequence: dispatch order is deterministic,
        #: so (seq, cid) indexes a unique counter-RNG draw per upload.
        self._fault_seq = 0
        #: Drop-fated arrivals since the last record: their bits were spent
        #: on the wire (the ledger must charge them) but nothing aggregates.
        self._window_lost: list[_Pending] = []

    # ------------------------------------------------------------- dispatch

    def _dispatch(self, cid: int, link: LinkSpec, ratio: float | None, t: float) -> _Pending:
        """Enter a dispatch's upload into the server ingress over ``link``
        (the client's current link — priced and admitted as the one object).

        Training waits for :meth:`_flush_training` (one backend batch per
        aggregation window instead of one per dispatch): pricing needs no
        update, the upload is billed its compressor's declared wire size
        (:meth:`Simulation._payload_for`).

        Fault injection decides the upload's fate here, at dispatch, by the
        rule sync uses (:meth:`Simulation._delivers`), and the price bills it:
        a truncated sparse upload at its kept entries (so its arrival shifts
        earlier), a drop — or a truncation with nothing decodable left — at
        full size.
        """
        frac = 1.0
        if self.faults is not None:
            frac = self.faults.fate(self._fault_seq, int(cid))[1]
            self._fault_seq += 1
        payload, down, train_t, up = self._stage_dispatch(cid, link, ratio, frac)
        duration = down + train_t + up
        up_start = (t + down) + train_t
        self.spans.add(cid, "train", t + down, up_start, tag=self.version)
        if not self.transport.contended:
            # A contended upload's span is logged when the pipe resolves it.
            self.spans.add(cid, "upload", up_start, up_start + up, tag=self.version)
        pend = _Pending(
            cid=cid,
            ratio=ratio,
            version=self.version,
            t_arrival=t + duration,
            duration=duration,
            upload=up,
            downlink=down,
            payload=payload,
            up_start=up_start,
            frac=frac,
            delivers=self._delivers(ratio, frac),
        )
        self._untrained.append(pend)
        # An exclusive pipe takes the already-priced finish, so the arrival
        # arithmetic stays bit-for-bit; a fair pipe ignores it.
        pend.fid = self._pipe.admit(payload.bits, link, up_start, finish=pend.t_arrival)
        self._flights[pend.fid] = pend
        self._window_down.append(cid)
        if self.obs.enabled:
            self.obs.metrics.gauge("ingress_depth").set(len(self._pipe))
        return pend

    def _resolve_arrival(self, t_fin: float, fid: int) -> _Pending:
        """Consume one upload completion from the ingress pipe."""
        pend = self._flights.pop(fid)
        if self.transport.contended:
            pend.t_arrival = t_fin
            pend.upload = t_fin - pend.up_start
            self.spans.add(pend.cid, "upload", pend.up_start, t_fin, tag=pend.version)
        return pend

    def _window_comm(self, contributions: list[_Pending]) -> RoundComm:
        """Flow ledger of one aggregation window: contributed uplink bits,
        bits spent by drop-fated uploads (transmitted, never aggregated),
        plus (when downlink accounting is on) this window's broadcasts."""
        spent = contributions + self._window_lost
        down = self._window_down if self.config.include_downlink else []
        self._window_lost, self._window_down = [], []
        return RoundComm.from_maps(
            uplink=self._add_bits({}, [p.cid for p in spent], [p.payload.bits for p in spent]),
            downlink=self._add_bits({}, down, [self.volume_bits] * len(down)),
        )

    def _flush_training(self) -> None:
        """Train every deferred dispatch as one backend batch per window.

        All deferred dispatches share the current model version (the server
        only steps at aggregation, and aggregation always flushes first), so
        training them together from today's ``global_params`` is bit-identical
        to having trained each at its dispatch instant. A fast client can be
        dispatched twice in one window; both backends run a client's tasks
        in list order on one worker (:func:`~repro.exec.process.shard_tasks`),
        so its second task trains after its first.
        """
        pending, self._untrained = self._untrained, []
        tasks = [
            ClientTask(position=pos, cid=p.cid, ratio=p.ratio)
            for pos, p in enumerate(pending)
        ]
        results = self._run_tasks(tasks, self.global_params, self._train_spec)
        for p, result in zip(pending, results, strict=True):
            p.result = result

    # ------------------------------------------------------------ aggregate

    def _staleness_weights(self, contributions: list[_Pending]) -> np.ndarray:
        """Data-frequency weights discounted by ``(1+s)^-a`` and normalized.

        ``s`` is the model-version lag at aggregation time (0 = trained on
        the current model); ``a`` is ``config.staleness_exponent`` —
        FedBuff's ``1/sqrt(1+s)`` at the default 0.5.
        """
        sizes = self.population.sizes_of([p.cid for p in contributions])
        freqs = sizes / sizes.sum()
        lags = np.array([self.version - p.version for p in contributions], dtype=np.float64)
        w = freqs * (1.0 + lags) ** (-self.config.staleness_exponent)
        return w / w.sum()

    def _comm_times(
        self, contributions: list[_Pending], dispatched: list[_Pending]
    ) -> RoundTimes:
        """Sec. 5.2 comm semantics on the event-driven protocols.

        Per-client comm = downlink + upload (downlink is *included* in the
        three headline fields, matching the sync plans and the RoundTimes
        invariant). ``actual`` is the slowest aggregated transfer;
        max/min range over this window's dispatches (falling back to the
        contributors when nothing was dispatched). The window's wall-clock
        span — which adds compute — lives in ``sim_start``/``sim_end``.
        """
        ranged = dispatched or contributions
        comm = [p.downlink + p.upload for p in ranged]
        # An all-lost window still spans the slowest completed transfer —
        # the dropped bits were transmitted even though nothing aggregated.
        actual_pool = contributions or ranged
        return RoundTimes(
            actual=max(p.downlink + p.upload for p in actual_pool),
            maximum=max(comm),
            minimum=min(comm),
            downlink=max(p.downlink for p in ranged),
        )

    def _close_window(
        self,
        contributions: list[_Pending],
        weights: np.ndarray,
        *,
        times: RoundTimes,
        sim_start: float,
        sim_end: float,
        selected: tuple[int, ...],
    ) -> RoundRecord:
        """Aggregate ``contributions`` into the global model (bumping its
        version) and commit the window's record. A window that lost every
        upload is a well-defined empty round: model and version unchanged.
        """
        lags = [self.version - p.version for p in contributions]
        updates = [self._delivered_update(p.result, p.frac) for p in contributions]
        singleton = None
        if contributions:
            self.global_params, singleton = self._aggregate_into(
                self.global_params, self.server_opt, updates, weights, self.algorithm.use_opwa
            )
            self.version += 1
        return self._commit(
            selected=selected,
            members=[self._member(p.result, u) for p, u in zip(contributions, updates)],
            times=times,
            weights=weights,
            singleton=singleton,
            sim_start=sim_start,
            sim_end=sim_end,
            comm=self._window_comm(contributions),
            mean_staleness=float(np.mean(lags)) if lags else 0.0,
            num_participants=(len(contributions) if self.faults is not None else None),
        )

    def _uniform_ratio(self) -> float | None:
        """Per-dispatch compression ratio: uniform CR* when the algorithm
        compresses (with its own compressor or the configured ``compressor``),
        dense otherwise.

        BCRS's per-round ratio *scheduling* assumes a synchronized benchmark
        window and does not transfer to event-driven dispatch; under
        ``mode="async"`` a BCRS config degrades to uniform-ratio compression
        (OPWA still applies at aggregation).
        """
        if self.algorithm.compressor_name is None:
            return None
        return float(self.config.compression_ratio)


class AsyncSimulation(_EventDrivenSimulation):
    """FedBuff-style asynchronous FL on the virtual clock.

    ``M = config.async_concurrency`` clients are always in flight; each
    arrival is buffered and its client's slot immediately refilled with a
    uniformly-sampled idle client. Every ``K = config.async_buffer_size``
    arrivals the server aggregates the buffer with staleness-discounted
    weights, bumps the model version, and records one
    :class:`~repro.fl.history.RoundRecord` (so ``config.rounds`` counts
    aggregations). No client ever waits on a straggler: fast devices cycle
    many times per slow-device upload, which is exactly the regime the
    paper's Fig. 10 time-to-accuracy curves motivate.
    """

    def __init__(self, config: ExperimentConfig, obs=None, context=None):
        super().__init__(config, obs=obs, context=context)
        if config.algorithm in ("bcrs", "bcrs_opwa", "deadline_topk"):
            # These algorithms' plan-time scheduling (BCRS ratio windows,
            # deadline straggler drops) assumes synchronized rounds; under
            # async dispatch they degrade to uniform-ratio compression. Say
            # so instead of letting the history silently mislabel the run.
            warnings.warn(
                f"algorithm {config.algorithm!r} under mode='async' runs uniform "
                f"{'Top-K' if config.compressor is None else repr(config.compressor)} "
                "at compression_ratio (per-round scheduling "
                "does not transfer to event-driven dispatch"
                + ("; OPWA still applies)" if config.algorithm == "bcrs_opwa" else ")"),
                stacklevel=3,
            )
        self._rng = RngFactory(config.seed).stream("async-dispatch")
        self._buffer: list[_Pending] = []
        self._in_flight: set[int] = set()
        self._primed = False

    def _prime(self) -> None:
        """First call only: start M distinct clients, in id order, at the
        current clock (0 on a fresh run, the restored clock after a
        checkpoint load)."""
        self._primed = True
        first = np.sort(
            self._rng.choice(
                self.config.num_clients, size=self.config.async_concurrency, replace=False
            )
        )
        for cid in first:
            self._launch(int(cid), self.now)

    def _launch(self, cid: int, t: float) -> None:
        # Training is deferred: the whole aggregation window trains as one
        # backend batch in _flush_training (arrival times need only the
        # client's link and speed), so parallel backends see real batches.
        self._dispatch(cid, self.links[cid], self._uniform_ratio(), t)
        self._in_flight.add(cid)

    def run_round(self) -> RoundRecord:
        """Advance virtual time until K arrivals, then aggregate them."""
        with self.obs.tracer.span("round", cat="sim", round=self.round_index):
            return self._advance_window()

    def _advance_window(self) -> RoundRecord:
        self._begin_round()
        if not self._primed:
            self._prime()
        K = self.config.async_buffer_size
        while len(self._buffer) < K:
            nxt = self._pipe.pop_next()
            if nxt is None:
                raise RuntimeError("async protocol has no uploads in flight")
            t_fin, fid = nxt
            self.now = t_fin
            pend = self._resolve_arrival(t_fin, fid)
            self._in_flight.discard(pend.cid)
            # A drop-fated upload still fills its buffer slot: the window is
            # K upload *completions*, and faults only remove contributions
            # (mirroring sync, where the cohort is fixed by selection). An
            # all-dropped window then records an empty round instead of
            # waiting forever for a deliverable arrival.
            self._buffer.append(pend)
            # Refill the slot: uniform over idle clients (the arrived client
            # is idle again, so the pool is never empty).
            n_idle = self.config.num_clients - len(self._in_flight)
            (cid,) = _idle_ids([self._rng.integers(n_idle)], self._in_flight)
            self._launch(cid, self.now)

        self._flush_training()  # everything dispatched this window, batched
        window, self._buffer = self._buffer, []
        contributions = [p for p in window if p.delivers]
        self._window_lost.extend(p for p in window if not p.delivers)
        weights = (
            self._staleness_weights(contributions)
            if contributions
            else np.empty(0, dtype=np.float64)
        )
        pool = contributions or window
        return self._close_window(
            contributions,
            weights,
            times=self._comm_times(pool, pool),
            sim_start=self.sim_clock,  # where the previous window closed
            sim_end=self.now,
            selected=tuple(p.cid for p in window),
        )


class SemiSyncSimulation(_EventDrivenSimulation):
    """Deadline-based semi-synchronous rounds on the virtual clock.

    Each round dispatches up to ``clients_per_round`` idle clients and
    closes at ``deadline_s`` virtual seconds (or, when unset, at the
    ``deadline_quantile`` of the dispatched clients' predicted finish
    times). Whatever arrived by the deadline is aggregated; late updates
    either **carry over** — the device keeps uploading and its (stale)
    update joins the round in whose window it lands, discounted by
    ``(1+s)^-a`` — or **drop** (``late_policy``). A round that would
    aggregate nothing extends to the earliest outstanding arrival instead,
    so progress is guaranteed.
    """

    def __init__(self, config: ExperimentConfig, obs=None, context=None):
        super().__init__(config, obs=obs, context=context)
        self._rng = RngFactory(config.seed).stream("semisync-sampler")
        self._busy: set[int] = set()  # carryover clients still uploading

    def _select(self) -> list[int]:
        n_idle = self.config.num_clients - len(self._busy)
        k = min(self.config.clients_per_round, n_idle)
        if k == 0:
            return []
        return _idle_ids(np.sort(self._rng.choice(n_idle, size=k, replace=False)), self._busy)

    def run_round(self) -> RoundRecord:
        with self.obs.tracer.span("round", cat="sim", round=self.round_index):
            return self._advance_round()

    def _advance_round(self) -> RoundRecord:
        cfg = self.config
        t0 = self.now
        selected = self._select()

        self._begin_round()

        # Plan and dispatch the round's fresh cohort; it trains as one
        # backend batch (selection order = position order, per the exec
        # contract) before anything aggregates.
        own: list[_Pending] = []
        plan_weights: dict[int, float] = {}
        if selected:
            links, plan, tasks = self._plan_cohort(selected)
            for pos, cid in enumerate(selected):
                own.append(self._dispatch(cid, links[pos], tasks[pos].ratio, t0))
                plan_weights[cid] = float(plan.weights[pos])
            self._flush_training()

        # Deadline: fixed, or the quantile of this round's predicted finishes
        # (no dispatches: the round exists only to drain arrivals).
        t_end = t0 + self._deadline([p.duration for p in own])

        if not self._flights:
            raise RuntimeError("semi-sync round has no dispatches and no pending arrivals")
        arrivals = self._pipe.pop_until(t_end + _EPS)
        if not arrivals:
            # Nothing would land in the window → extend to the earliest
            # completion (exact even under contention: no flow can be
            # admitted before the next round, which starts at the new end).
            t_end = self._pipe.peek_next()[0]
            arrivals = self._pipe.pop_until(t_end + _EPS)

        arrived: list[_Pending] = []
        for t_fin, fid in arrivals:
            pend = self._resolve_arrival(t_fin, fid)
            self._busy.discard(pend.cid)
            arrived.append(pend)
        # Drop-fated completions finished transmitting (the device is idle
        # again, its bits hit the ledger) but contribute nothing.
        contributions = [p for p in arrived if p.delivers]
        self._window_lost.extend(p for p in arrived if not p.delivers)
        own_arrived = {p.cid for p in arrived if p.version == self.version}

        # Late updates: carry over (device keeps uploading; its flow stays
        # in the ingress and the client stays busy) or drop (abandoned at
        # the deadline; the flow is cancelled, freeing its ingress share).
        late = [p for p in own if p.cid not in own_arrived]
        if cfg.late_policy == "carryover":
            self._busy.update(p.cid for p in late)
        else:
            for p in late:
                self._pipe.cancel(p.fid)
                del self._flights[p.fid]
                if self.transport.contended and t_end > p.up_start:
                    # What the device did transmit before abandoning.
                    self.spans.add(p.cid, "upload", p.up_start, t_end, tag=p.version)

        # Weights on a common scale: the staleness-discounted data
        # frequencies (normalized over the contributors) decide how much
        # mass the fresh arrivals get versus the carryovers; within the
        # fresh subset, the plan's coefficients (Eq. 6 adjustments)
        # redistribute that mass. Mixing raw plan weights (normalized over
        # all *dispatched* clients) with stale_w directly would let a lone
        # carryover outweigh every on-time update.
        if contributions:
            stale_w = self._staleness_weights(contributions)
            fresh = [j for j, p in enumerate(contributions) if p.version == self.version]
            w = stale_w.copy()
            if fresh:
                pw = np.array(
                    [plan_weights[contributions[j].cid] for j in fresh], dtype=np.float64
                )
                # The plan's zeros are exclusions (deadline_topk drops
                # stragglers) and must stay zero here too — including a
                # plan-dropped update at frequency weight would make sync and
                # semisync disagree on aggregation *membership*, not just
                # timing. All-zero fresh arrivals cede the round to carryovers.
                w[fresh] = (
                    stale_w[fresh].sum() * pw / pw.sum() if pw.sum() > 0 else 0.0
                )
            if w.sum() == 0:  # every contributor excluded and no carryovers
                w = stale_w  # degenerate fallback, mirroring the plan's own
            weights = w / w.sum()
        else:
            weights = np.empty(0, dtype=np.float64)

        times = self._comm_times(contributions or arrived, own)
        self.now = t_end
        return self._close_window(
            contributions,
            weights,
            times=times,
            sim_start=t0,
            sim_end=t_end,
            selected=tuple(selected),
        )
