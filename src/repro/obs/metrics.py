"""A labeled metrics registry: counters, gauges, histograms, snapshots.

:class:`MetricsRegistry` hands out instruments keyed by ``(name, labels)``
— ``registry.counter("wire_bits", kind="sparse")`` — created on first use.
Three instrument kinds:

- :class:`Counter` — monotonically increasing total (``inc``);
- :class:`Gauge` — last-set value, with its observed peak (``set``);
- :class:`Histogram` — fixed-bucket distribution (``observe``), exported
  with per-bucket ``le`` counts plus count/sum/min/max.

:meth:`MetricsRegistry.snapshot` freezes every current value under a round
index, so per-round series (hydration misses per round, wire bits per
round) can be reconstructed from one export. The one export is
:meth:`~MetricsRegistry.export_json`: the full registry and its snapshots
as one JSON file, which ``python -m repro report --metrics`` renders.

The disabled path is :class:`NullMetrics`: its instrument getters return
one shared no-op instrument, so un-observed code paths cost an attribute
load and a call. Instruments never touch RNG state — the determinism
contract of :mod:`repro.obs` holds with metrics on or off.
"""

from __future__ import annotations

import json
import math

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds-flavored; +inf implied).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def current(self) -> float:
        return self.value


class Gauge:
    """A last-set value, tracking its observed peak."""

    __slots__ = ("value", "peak")
    kind = "gauge"

    def __init__(self):
        self.value = 0.0
        self.peak = -math.inf

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.value > self.peak:
            self.peak = self.value

    def current(self) -> float:
        return self.value


class Histogram:
    """A fixed-bucket distribution of observations."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last = +inf
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def current(self) -> float:
        return self.count


class _NullInstrument:
    """One object serving as the disabled counter/gauge/histogram."""

    __slots__ = ()
    kind = "null"
    value = 0.0
    peak = 0.0
    count = 0
    total = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def current(self) -> float:
        return 0.0

    def mean(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The disabled registry: every instrument getter is a shared no-op."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, *, buckets=None, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self, round_index: int) -> None:
        pass


NULL_METRICS = NullMetrics()


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Instruments keyed by ``(name, labels)``, with per-round snapshots."""

    enabled = True

    def __init__(self):
        self._instruments: dict[tuple, object] = {}
        #: ``[{"round": r, "values": {"name{k=v}": value, ...}}, ...]``
        self.snapshots: list[dict] = []

    # ---------------------------------------------------------- instruments

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = _key(name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(**kwargs)
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r}{labels} already registered as {inst.kind}, "
                f"requested {cls.kind}"
            )
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, *, buckets=None, **labels) -> Histogram:
        if buckets is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, bounds=tuple(buckets))

    def value(self, name: str, **labels) -> float:
        """Current value of one instrument (0.0 if never touched)."""
        inst = self._instruments.get(_key(name, labels))
        return inst.current() if inst is not None else 0.0

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        return iter(sorted(self._instruments.items()))

    # ------------------------------------------------------------ snapshots

    @staticmethod
    def _series_name(key: tuple) -> str:
        name, labels = key
        if not labels:
            return name
        inner = ",".join(f"{k}={v}" for k, v in labels)
        return f"{name}{{{inner}}}"

    def snapshot(self, round_index: int) -> None:
        """Freeze every instrument's current value under ``round_index``."""
        self.snapshots.append(
            {
                "round": int(round_index),
                "values": {
                    self._series_name(key): inst.current()
                    for key, inst in sorted(self._instruments.items())
                },
            }
        )

    # -------------------------------------------------------------- export

    def to_dict(self) -> dict:
        """The registry as one JSON-ready document."""
        metrics = []
        for (name, labels), inst in sorted(self._instruments.items()):
            row: dict = {"name": name, "labels": dict(labels), "kind": inst.kind}
            if isinstance(inst, Counter):
                row["value"] = inst.value
            elif isinstance(inst, Gauge):
                row["value"] = inst.value
                row["peak"] = None if inst.peak == -math.inf else inst.peak
            else:
                assert isinstance(inst, Histogram)
                row.update(
                    count=inst.count,
                    sum=inst.total,
                    min=None if inst.count == 0 else inst.min,
                    max=None if inst.count == 0 else inst.max,
                    mean=inst.mean(),
                    buckets=[
                        {"le": le, "count": c}
                        for le, c in zip((*inst.bounds, math.inf), inst.bucket_counts)
                    ],
                )
            metrics.append(row)
        return {"schema": 1, "metrics": metrics, "snapshots": self.snapshots}

    def export_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, default=str)
            fh.write("\n")
