"""Per-round records and the run history (curves for every paper figure)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.metrics import RoundTimes, TimeAccumulator

__all__ = ["RoundComm", "EdgeRecord", "RoundRecord", "History"]


@dataclass(frozen=True)
class RoundComm:
    """Byte-accurate flow ledger of one round (or aggregation window).

    Each field is a sorted tuple of ``(endpoint id, bits)`` pairs recording
    exact wire volumes the transport priced this round: ``uplink`` and
    ``downlink`` key by client id (downlink entries appear only when
    downlink accounting is on — the ledger records *priced* flows);
    ``backhaul`` keys by edge id with both edge↔cloud directions summed
    (empty on flat protocols and free backhauls).
    """

    uplink: tuple[tuple[int, float], ...] = ()
    downlink: tuple[tuple[int, float], ...] = ()
    backhaul: tuple[tuple[int, float], ...] = ()

    @staticmethod
    def from_maps(
        uplink: dict[int, float] | None = None,
        downlink: dict[int, float] | None = None,
        backhaul: dict[int, float] | None = None,
    ) -> "RoundComm":
        """Build a ledger from id→bits accumulators, dropping zero entries."""

        def items(m):
            if not m:
                return ()
            return tuple(sorted((int(k), float(v)) for k, v in m.items() if v > 0))

        return RoundComm(
            uplink=items(uplink), downlink=items(downlink), backhaul=items(backhaul)
        )

    @property
    def uplink_bits(self) -> float:
        return sum(b for _, b in self.uplink)

    @property
    def downlink_bits(self) -> float:
        return sum(b for _, b in self.downlink)

    @property
    def backhaul_bits(self) -> float:
        return sum(b for _, b in self.backhaul)

    @property
    def total_bits(self) -> float:
        return self.uplink_bits + self.downlink_bits + self.backhaul_bits

    @property
    def total_bytes(self) -> float:
        return self.total_bits / 8.0


@dataclass(frozen=True)
class EdgeRecord:
    """One edge aggregator's share of a hierarchical cloud round.

    ``sub_spans`` are the virtual durations of the edge's K₁ client↔edge
    sub-rounds; ``backhaul_s`` is the edge↔cloud transfer time (upload plus,
    when downlink accounting is on, the cloud→edge broadcast). The edge
    occupied ``[start, end]`` on the virtual clock, ``end`` including the
    backhaul upload.
    """

    edge: int
    selected: tuple[int, ...]  # clients sampled across the edge's sub-rounds
    sub_spans: tuple[float, ...]  # virtual duration of each sub-round
    backhaul_s: float
    start: float
    end: float


@dataclass(frozen=True)
class RoundRecord:
    """Everything measured in one communication round (or, in async mode,
    one buffered aggregation)."""

    round_index: int
    selected: tuple[int, ...]
    train_loss: float
    test_accuracy: float | None  # None on rounds without evaluation
    times: RoundTimes
    ratios: tuple[float, ...]  # realized per-client compression ratios
    weights: tuple[float, ...]  # averaging coefficients used
    singleton_fraction: float | None  # OPWA diagnostics (None when dense)
    train_seconds: float  # wall-clock local training time (Fig. 6)
    compress_seconds: float  # wall-clock compress+decompress time (Fig. 6)
    # Virtual-clock span (repro.simtime): the round/aggregation occupied
    # [sim_start, sim_end] on the scheduler's clock — download + compute +
    # upload, unlike ``times`` which prices communication only. None on
    # histories from before the scheduler existed (e.g. old JSON files).
    sim_start: float | None = None
    sim_end: float | None = None
    mean_staleness: float | None = None  # async/carryover: mean model-version lag
    # Hierarchical rounds (repro.hier): per-edge tier timings. None on flat
    # protocols and on histories persisted before the hierarchy existed.
    edge_breakdown: tuple[EdgeRecord, ...] | None = None
    # Transport flow ledger (repro.network.transport): exact bits moved per
    # client/tier this round. None on histories from before the unified
    # transport layer existed.
    comm: RoundComm | None = None
    # Uploads that actually reached the aggregator (repro.robust / fault
    # injection): len(selected) minus drops and unusable truncations; 0 on a
    # well-defined empty round (model unchanged). None on fault-free runs
    # and on histories persisted before fault injection existed — there,
    # every selected client participated.
    num_participants: int | None = None


@dataclass
class History:
    """Accumulated run record: what every table/figure is computed from."""

    records: list[RoundRecord] = field(default_factory=list)
    time: TimeAccumulator = field(default_factory=TimeAccumulator)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)
        self.time.update(record.times)

    def __len__(self) -> int:
        return len(self.records)

    # ---- series accessors -------------------------------------------------

    def accuracy_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(round indexes, test accuracies) at evaluated rounds — Fig. 7–9/13–15."""
        pts = [(r.round_index, r.test_accuracy) for r in self.records if r.test_accuracy is not None]
        if not pts:
            return np.empty(0, int), np.empty(0)
        rounds, accs = zip(*pts)
        return np.asarray(rounds), np.asarray(accs)

    def accuracy_vs_time(self) -> tuple[np.ndarray, np.ndarray]:
        """(cumulative actual comm time, accuracy) at evaluated rounds — Fig. 10."""
        cum = self.time.actual_series
        pts = [
            (cum[i], r.test_accuracy)
            for i, r in enumerate(self.records)
            if r.test_accuracy is not None
        ]
        if not pts:
            return np.empty(0), np.empty(0)
        t, accs = zip(*pts)
        return np.asarray(t), np.asarray(accs)

    def accuracy_vs_simtime(self) -> tuple[np.ndarray, np.ndarray]:
        """(virtual-clock time, accuracy) at evaluated rounds.

        The native time axis for cross-mode (sync / semisync / async)
        comparison: every record's ``sim_end`` timestamps when its model
        became available, pricing download + compute + upload. Falls back
        to :meth:`accuracy_vs_time` for histories without sim spans.
        """
        if any(r.sim_end is None for r in self.records):
            return self.accuracy_vs_time()
        pts = [
            (r.sim_end, r.test_accuracy)
            for r in self.records
            if r.test_accuracy is not None
        ]
        if not pts:
            return np.empty(0), np.empty(0)
        t, accs = zip(*pts)
        return np.asarray(t), np.asarray(accs)

    def simtime_to_accuracy(self, target: float) -> float | None:
        """Virtual-clock time when ``target`` accuracy is first reached
        (None if never) — the cross-mode time-to-accuracy extraction."""
        t, accs = self.accuracy_vs_simtime()
        for ti, ai in zip(t, accs):
            if ai >= target:
                return float(ti)
        return None

    def final_accuracy(self) -> float:
        """Last evaluated test accuracy — the Table 2 number."""
        _, accs = self.accuracy_series()
        if accs.size == 0:
            raise ValueError("no evaluations recorded")
        return float(accs[-1])

    def best_accuracy(self) -> float:
        """Best evaluated test accuracy over the run."""
        _, accs = self.accuracy_series()
        if accs.size == 0:
            raise ValueError("no evaluations recorded")
        return float(accs.max())

    def virtual_end(self) -> float | None:
        """Virtual-clock time at the last record's end (None on an empty
        history, or one persisted before the scheduler existed)."""
        return self.records[-1].sim_end if self.records else None

    # ---- Table 3: time to target accuracy ----------------------------------

    def time_to_accuracy(self, target: float) -> float | None:
        """Accumulated actual communication time when ``target`` is first
        reached (None if never) — the Table 3 extraction."""
        actual = 0.0
        for r in self.records:
            actual += r.times.actual
            if r.test_accuracy is not None and r.test_accuracy >= target:
                return actual
        return None

    # ---- transport flow accounting -----------------------------------------

    def comm_totals(self) -> dict[str, float]:
        """Accumulated wire bytes and transfer counts per direction over
        rounds with ledgers.

        ``rounds`` counts the records carrying a flow ledger (0 on legacy
        histories, where every other field is 0 too).
        """
        up = down = back = 0.0
        n = n_up = n_down = n_back = 0
        for r in self.records:
            if r.comm is None:
                continue
            n += 1
            up += r.comm.uplink_bits
            down += r.comm.downlink_bits
            back += r.comm.backhaul_bits
            n_up += len(r.comm.uplink)
            n_down += len(r.comm.downlink)
            n_back += len(r.comm.backhaul)
        return {
            "uplink_bytes": up / 8.0,
            "downlink_bytes": down / 8.0,
            "backhaul_bytes": back / 8.0,
            "total_bytes": (up + down + back) / 8.0,
            "uplink_transfers": n_up,
            "downlink_transfers": n_down,
            "backhaul_transfers": n_back,
            "rounds": float(n),
        }

    def comm_per_client(self) -> dict[int, float]:
        """Accumulated *uplink* bytes per client id — the egress each device
        actually paid, the fairness axis of the flow accounting."""
        out: dict[int, float] = {}
        for r in self.records:
            if r.comm is None:
                continue
            for cid, bits in r.comm.uplink:
                out[cid] = out.get(cid, 0.0) + bits / 8.0
        return out

    # ---- Fig. 6: time breakdown --------------------------------------------

    def mean_breakdown(self) -> dict[str, float]:
        """Average per-round wall/simulated times: the Fig. 6 bars."""
        if not self.records:
            raise ValueError("empty history")
        n = len(self.records)
        return {
            "compress_s": sum(r.compress_seconds for r in self.records) / n,
            "train_s": sum(r.train_seconds for r in self.records) / n,
            "comm_uncompressed_s": self.time.max_total / n,
            "comm_actual_s": self.time.actual_total / n,
        }
