"""The four workloads. Names are stable: later issues cite them.

A workload object is built once per episode — building it *is* the set-up the
harness times — then warmed up, then run through its timed region, then asked
for its :class:`Outcome`. Every size below is spelled out here, field by
field, and not taken from ``paper_config``, ``bench_config`` or the scenario
registry, so a later edit of a preset cannot silently change a workload. The
program receives only inputs generated from ``--seed``.

All four pin ``backend="serial"`` / ``executor="serial"``: on the 2-core
shared box this was sized on, a 2-worker pool swings by a quarter to a half
where the serial loop repeats within a few per cent, so process and thread
scaling are deliberately not wall-clock metrics here.

Episode lengths are sized so one timed region takes 2.5 to 4 s there and a
10 s run holds three to five of them.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from bench.host import OUT_DIR
from bench.metrics import history_digest

__all__ = ["Outcome", "build"]


@dataclass
class Outcome:
    """What one episode produced, read after its timed region."""

    digest: str
    attempted: int  # operations (aggregation rounds) in the timed region
    failed: int
    final_accuracy: float
    uplink_mb: float
    sim_time_to_target_s: float
    program_train_s: float = 0.0  # the program's own RoundRecord stamps,
    program_compress_s: float = 0.0  # summed over the timed region
    checks: list[tuple[str, bool, str]] = field(default_factory=list)


def _check(checks, name: str, ok: bool, detail: str = "") -> None:
    checks.append((name, bool(ok), detail))


def _bad_records(records) -> int:
    return sum(1 for r in records if not math.isfinite(r.train_loss))


def _time_to_target(history, target: float | None) -> float:
    """Virtual seconds to ``target`` accuracy; a run that has no target or
    never reaches it counts the virtual clock at its end."""
    reached = None if target is None else history.simtime_to_accuracy(target)
    return float(history.records[-1].sim_end if reached is None else reached)


class _SimulationWorkload:
    """Shared loop of the two workloads that drive one ``Simulation``."""

    warmup_rounds: int
    timed_rounds: int

    def _make(self, config) -> None:
        from repro.simtime import make_simulation

        self.config = config
        self.sim = make_simulation(config)
        self.ops = self.timed_rounds
        self.unit_s: list[float] = []

    def warmup(self) -> None:
        for _ in range(self.warmup_rounds):
            self.sim.run_round()

    def timed(self, tracer=None) -> None:
        run_round, stamp = self.sim.run_round, time.perf_counter
        marks = [stamp()]
        for _ in range(self.timed_rounds):
            run_round()
            marks.append(stamp())
        self.unit_s = [b - a for a, b in zip(marks, marks[1:])]

    def close(self) -> None:
        self.sim.close()

    def _base_outcome(self, target: float) -> Outcome:
        from repro.io.history_io import history_to_dict

        history = self.sim.history
        timed = history.records[self.warmup_rounds :]
        return Outcome(
            digest=history_digest(history_to_dict(history)),
            attempted=self.ops,
            failed=_bad_records(timed),
            final_accuracy=history.final_accuracy(),
            uplink_mb=history.comm_totals()["uplink_bytes"] / 1e6,
            sim_time_to_target_s=_time_to_target(history, target),
            program_train_s=sum(r.train_seconds for r in timed),
            program_compress_s=sum(r.compress_seconds for r in timed),
        )


class PaperSync(_SimulationWorkload):
    """The paper's Sec. 5.1 cell — the loop every table in the paper is made of."""

    name = "paper_sync"
    target = 0.90

    def __init__(self, seed: int, smoke: bool):
        from repro.fl.config import ExperimentConfig

        self.warmup_rounds, self.timed_rounds = (4, 16) if smoke else (20, 240)
        self._make(
            ExperimentConfig(
                dataset="synth-cifar10",
                model="mlp",  # d = 33,610
                num_train=2000,
                num_test=500,
                num_clients=10,
                participation=0.5,
                beta=0.5,
                partition="dirichlet",
                rounds=self.warmup_rounds + self.timed_rounds,
                local_epochs=1,
                batch_size=64,
                lr=0.1,
                algorithm="bcrs_opwa",
                compression_ratio=0.1,
                alpha=0.3,
                gamma=7.0,
                mode="sync",
                backend="serial",
                eval_every=2,
                seed=seed,
            )
        )
        self.min_accuracy = 0.5 if smoke else self.target

    def outcome(self) -> Outcome:
        out = self._base_outcome(self.target)
        floor = self.config.compression_ratio - 1.0 / self.sim.dense_size
        ratios = [r for rec in self.sim.history.records for r in rec.ratios]
        _check(
            out.checks,
            "final accuracy",
            out.final_accuracy >= self.min_accuracy,
            f"{out.final_accuracy:.4f} >= {self.min_accuracy}",
        )
        _check(
            out.checks,
            "realised ratios in [CR*, 1]",
            all(floor <= r <= 1.0 for r in ratios),
            f"min {min(ratios):.4f} max {max(ratios):.4f}",
        )
        stats = self.sim.clients.stats()
        _check(
            out.checks,
            "hydration cache holds the fleet",
            stats["misses"] <= self.config.num_clients,
            f"{stats['misses']} misses, {stats['hits']} hits",
        )
        return out


class FleetRound(_SimulationWorkload):
    """The registry's ``mega-fleet`` spelled out at a fortieth of its cohort.

    ``alpha`` is rescaled: Eq. 6 coefficients are each at most alpha, so with
    the registry's alpha = 0.3 the weights of a large cohort sum to a hundred
    or more and the run diverges within five rounds; alpha = 1.5 / |S_t|
    keeps the summed weight at the paper's (0.3 x 5 clients).

    Twelve rounds of 250 and not seven of 500: BCRS fills every upload up to
    the cohort's *slowest* link, so a round's kept entries (and its time,
    volume and memory) swing by a third with that one draw, and a short
    episode's mean inherits the swing from seed to seed (quartile distance
    11 % of the median over 7 rounds of 500, 5 % over 12 rounds of 250).
    """

    name = "fleet_round"
    target = None  # twelve rounds reach no target: the clock at their end counts

    def __init__(self, seed: int, smoke: bool):
        from repro.fl.config import ExperimentConfig

        fleet, self.cohort = (100_000, 50) if smoke else (1_000_000, 250)
        self.warmup_rounds, self.timed_rounds = (1, 2) if smoke else (2, 10)
        self._make(
            ExperimentConfig(
                dataset="synth-cifar10",
                model="mlp",
                num_train=4096,
                num_test=400,
                num_clients=fleet,
                participation=self.cohort / fleet,
                virtual_shards=True,
                virtual_shard_min=16,
                virtual_shard_max=64,
                hydration_cache=16 if smoke else 256,  # the registry's
                rounds=self.warmup_rounds + self.timed_rounds,
                local_epochs=1,
                batch_size=64,
                lr=0.1,
                algorithm="bcrs_opwa",
                compression_ratio=0.1,
                alpha=1.5 / self.cohort,
                gamma=8.0,
                mode="sync",
                backend="serial",
                eval_every=1,
                seed=seed,
            )
        )

    def outcome(self) -> Outcome:
        out = self._base_outcome(self.target)
        records = self.sim.history.records
        first, last = records[0].train_loss, records[-1].train_loss
        _check(
            out.checks,
            "loss finite and falling",
            math.isfinite(last) and last < first,
            f"{first:.3f} -> {last:.3f}",
        )
        _check(
            out.checks,
            "cohort size every round",
            all(len(r.selected) == self.cohort for r in records),
            f"{self.cohort} participants",
        )
        stats = self.sim.clients.stats()
        lookups = self.cohort * len(records)
        # Not "no hit at all": two cohorts of 250 out of a million share a
        # client once in sixteen rounds, and it may still be resident.
        _check(
            out.checks,
            "nearly every participant is hydrated anew",
            stats["hits"] + stats["misses"] == lookups
            and stats["hydrations"] == stats["misses"] >= 0.99 * lookups,
            f"{stats['hydrations']} hydrations, {stats['hits']} hits",
        )
        return out


@contextmanager
def _expected_warnings():
    """bcrs_opwa under async warns that it runs uniform Top-K; that is the
    configuration the sweep wants."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


class SweepModes:
    """12 cells over one shared world: the same layers, used differently."""

    name = "sweep_modes"
    target = 0.70

    def __init__(self, seed: int, smoke: bool):
        from repro.fl.config import ExperimentConfig
        from repro.scenarios import RunStore, SweepRunner, expand_grid
        from repro.scenarios.sweep import WORLD_CACHE

        self.rounds = 6 if smoke else 30
        self.base = ExperimentConfig(
            dataset="synth-cifar10",
            model="mlp",
            num_train=800 if smoke else 3200,
            num_test=400,
            num_clients=32,
            participation=0.25,
            rounds=self.rounds,
            lr=0.1,
            compression_ratio=0.1,
            num_edges=4,
            contention="fair",
            server_ingress_mbps=4.0,
            backend="serial",
            eval_every=5,
            seed=seed,
        )
        self.specs = expand_grid(
            self.base,
            {
                "mode": ["sync", "semisync", "async", "hier"],
                "algorithm": ["topk", "eftopk", "bcrs_opwa"],
            },
        )
        OUT_DIR.mkdir(exist_ok=True)
        self.store_dir = Path(tempfile.mkdtemp(prefix="sweep-store-", dir=OUT_DIR))
        self.store = RunStore(self.store_dir)
        self._marks: list[float] = []
        self.runner = SweepRunner(
            self.specs,
            parallel=1,
            executor="serial",
            store=self.store,
            progress=lambda spec, cached: self._marks.append(time.perf_counter()),
        )
        self.world_cache = WORLD_CACHE
        self.world_cache.get(self.base)
        self.ops = len(self.specs) * self.rounds
        self.report = None
        self.unit_s: list[float] = []

    def warmup(self) -> None:
        from repro.scenarios.sweep import run_cell

        with _expected_warnings():
            run_cell(self.specs[0].with_overrides(rounds=5).to_dict())

    def timed(self, tracer=None) -> None:
        self._hits_before = self.world_cache.stats()["hits"]
        start = time.perf_counter()
        with _expected_warnings():
            self.report = self.runner.run()
        self.unit_s = [b - a for a, b in zip([start, *self._marks], self._marks)]

    def close(self) -> None:
        self.runner.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def outcome(self) -> Outcome:
        from repro.io.history_io import history_to_dict

        cells = self.report.cells
        histories = [h for _, h in cells]
        payloads = [history_to_dict(h) for h in histories]
        records = [r for h in histories for r in h.records]
        out = Outcome(
            digest=hashlib.sha256(
                "".join(history_digest(p) for p in payloads).encode()
            ).hexdigest(),
            attempted=self.ops,
            failed=_bad_records(records),
            final_accuracy=sum(h.final_accuracy() for h in histories) / len(histories),
            uplink_mb=sum(h.comm_totals()["uplink_bytes"] for h in histories) / 1e6,
            sim_time_to_target_s=sum(_time_to_target(h, self.target) for h in histories)
            / len(histories),
            program_train_s=sum(r.train_seconds for r in records),
            program_compress_s=sum(r.compress_seconds for r in records),
        )
        _check(
            out.checks,
            "every cell ran every round",
            len(cells) == len(self.specs) and all(len(h) == self.rounds for h in histories),
            f"{len(cells)} cells x {self.rounds} records",
        )
        hits = self.world_cache.stats()["hits"] - self._hits_before
        _check(
            out.checks,
            "one world-cache hit per cell",
            hits == len(self.specs),
            f"{hits} hits",
        )
        files = sorted(self.store_dir.glob("*.json"))
        reloaded = [self.store.load(spec) for spec in self.specs]
        _check(
            out.checks,
            "store files reload equal",
            len(files) == len(self.specs)
            and all(
                h is not None and history_to_dict(h) == p
                for h, p in zip(reloaded, payloads)
            ),
            f"{len(files)} files",
        )
        return out


class WideKernels:
    """Server-side and compressor kernels at paper width, composed by the
    driver from public functions exactly as ``Simulation._aggregate_into``
    composes them. No ``ExperimentConfig`` reaches d = 1M, yet that is the
    width the paper prices, and where the cost balance inverts: no training,
    Top-K and the overlap mask first.

    Links are the ``n`` evenly spaced quantiles of a log-normal (median
    2 Mbit/s, sigma 0.8) handed to clients in a seed-shuffled order, not ``n``
    random draws: with ten clients the BCRS ratios, and with them every
    kernel's work, would otherwise swing by half from seed to seed.
    """

    name = "wide_kernels"
    clients = 10
    delta_sets = 4
    default_cr = 0.05
    alpha = 0.3
    gamma = 7.0

    def __init__(self, seed: int, smoke: bool):
        from repro.compression.registry import make_compressor
        from repro.core.arena import AggregationArena
        from repro.core.server_opt import make_server_optimizer
        from repro.network.cost import LinkSpec, model_bits
        from repro.network.transport import Transport

        self.d = 50_000 if smoke else 1_000_000
        self.warmup_rounds, self.timed_rounds = (1, 4) if smoke else (2, 32)
        self.ops = self.timed_rounds
        rng = np.random.default_rng(seed)
        n = self.clients
        self.deltas = [
            [rng.standard_t(3, size=self.d).astype(np.float32) for _ in range(n)]
            for _ in range(self.delta_sets)
        ]
        z = [NormalDist().inv_cdf((j + 0.5) / n) for j in rng.permutation(n)]
        self.links = [
            LinkSpec(bandwidth_bps=2e6 * math.exp(0.8 * zj), latency_s=float(lat))
            for zj, lat in zip(z, rng.uniform(0.01, 0.1, n))
        ]
        self.freqs = rng.dirichlet(np.full(n, 5.0))
        self.volume_bits = model_bits(self.d)
        self.params = np.zeros(self.d, dtype=np.float32)
        self.compressors = [make_compressor("topk") for _ in range(n)]
        self.arena = AggregationArena(self.d)
        self.server_opt = make_server_optimizer("sgd")
        self.transport = Transport()
        self.uplink_bits = 0.0
        self.sim_clock = 0.0
        self.round_index = 0
        self.unit_s: list[float] = []

    def _round(self):
        from repro.core.bcrs import schedule_ratios
        from repro.core.coefficients import adjusted_coefficients
        from repro.core.opwa import opwa_mask_from_updates
        from repro.core.overlap import overlap_distribution
        from repro.network.transport import Payload
        from repro.robust.aggregators import robust_aggregate

        deltas = self.deltas[self.round_index % self.delta_sets]
        schedule = schedule_ratios(self.links, self.volume_bits, self.default_cr)
        weights = adjusted_coefficients(self.freqs, schedule.ratios, self.alpha)
        updates = [
            comp.compress(delta, float(ratio))
            for comp, delta, ratio in zip(self.compressors, deltas, schedule.ratios)
        ]
        overlap_distribution(updates).singleton_fraction()
        mask = opwa_mask_from_updates(updates, self.gamma)
        pseudo_grad = robust_aggregate(
            updates, weights, aggregator="mean", mask=mask, arena=self.arena
        )
        self.server_opt.step(
            self.params, pseudo_grad, out=self.params, scratch=self.arena.step_scratch
        )
        slowest = 0.0
        for link, update in zip(self.links, updates):
            payload = Payload.from_update(update)
            self.uplink_bits += payload.bits
            slowest = max(slowest, self.transport.uplink_seconds(link, payload))
        self.sim_clock += slowest
        self.round_index += 1
        return schedule, weights, updates, mask

    def warmup(self) -> None:
        for _ in range(self.warmup_rounds):
            self._round()

    def timed(self, tracer=None) -> None:
        stamp = time.perf_counter
        marks = [stamp()]
        for _ in range(self.timed_rounds):
            if tracer is None:
                self._round()
            else:
                with tracer.span("round"):
                    self._round()
            marks.append(stamp())
        self.unit_s = [b - a for a, b in zip(marks, marks[1:])]

    def close(self) -> None:
        pass

    def outcome(self) -> Outcome:
        """One more round, outside the timed region, checked against dense
        references."""
        from repro.compression.sparsifiers import k_from_ratio

        finite = bool(np.isfinite(self.params).all())
        uplink_bits, sim_clock = self.uplink_bits, self.sim_clock
        checksum = hashlib.sha256(self.params.tobytes())
        checksum.update(repr((uplink_bits, sim_clock)).encode())
        before = self.params.astype(np.float64)
        deltas = self.deltas[self.round_index % self.delta_sets]
        schedule, weights, updates, mask = self._round()

        exact_k = threshold = True
        reference = np.zeros(self.d, dtype=np.float64)
        for delta, ratio, weight, update in zip(deltas, schedule.ratios, weights, updates):
            exact_k &= update.nnz == k_from_ratio(self.d, float(ratio))
            magnitude = np.abs(delta)
            dropped = magnitude.copy()
            dropped[update.indices] = 0.0
            threshold &= bool(magnitude[update.indices].min() >= dropped.max())
            np.add.at(reference, update.indices, weight * update.values.astype(np.float64))
        reference *= mask
        stepped = (before - reference).astype(np.float32)

        out = Outcome(
            digest=checksum.hexdigest(),
            attempted=self.ops,
            failed=0 if finite else self.ops,
            final_accuracy=0.0,  # nothing is trained here
            uplink_mb=uplink_bits / 8e6,
            sim_time_to_target_s=sim_clock,
        )
        _check(out.checks, "parameters finite", finite)
        _check(out.checks, "each update keeps exactly k_from_ratio entries", exact_k)
        _check(out.checks, "kept magnitudes dominate dropped ones", threshold)
        _check(
            out.checks,
            "aggregate + step equal the dense np.add.at reference",
            bool(np.allclose(self.params, stepped, rtol=1e-6, atol=1e-7)),
            f"max |diff| {float(np.abs(self.params - stepped).max()):.3g}",
        )
        return out


_WORKLOADS = {cls.name: cls for cls in (PaperSync, FleetRound, SweepModes, WideKernels)}


def build(name: str, seed: int, smoke: bool = False):
    """Set up workload ``name`` for one episode (this call is the set-up)."""
    return _WORKLOADS[name](seed, smoke)
