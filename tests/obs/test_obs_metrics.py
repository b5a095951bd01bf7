"""MetricsRegistry instruments, snapshots, and the JSON export."""

from __future__ import annotations

import json

import pytest

from repro.obs import NULL_METRICS, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("wire_bits", kind="sparse")
        c.inc(100.0)
        c.inc(50.0)
        assert reg.value("wire_bits", kind="sparse") == 150.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_labels_key_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("wire_bits", kind="dense").inc(1)
        reg.counter("wire_bits", kind="sparse").inc(2)
        assert reg.value("wire_bits", kind="dense") == 1
        assert reg.value("wire_bits", kind="sparse") == 2
        assert len(reg) == 2

    def test_gauge_tracks_peak(self):
        reg = MetricsRegistry()
        g = reg.gauge("ingress_depth")
        g.set(3)
        g.set(9)
        g.set(2)
        assert g.value == 2.0
        assert g.peak == 9.0

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.bucket_counts == [1, 2, 1]  # <=0.1, <=1.0, +inf
        assert h.min == 0.05 and h.max == 5.0
        assert abs(h.mean() - (0.05 + 0.5 + 0.7 + 5.0) / 4) < 1e-12

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_null_metrics_is_inert(self):
        NULL_METRICS.counter("a", k="v").inc(5)
        NULL_METRICS.gauge("b").set(1)
        NULL_METRICS.histogram("c").observe(2)
        NULL_METRICS.snapshot(0)
        assert NULL_METRICS.counter("a").current() == 0.0
        assert not NULL_METRICS.enabled


class TestSnapshotsAndExport:
    def test_snapshots_freeze_per_round_values(self):
        reg = MetricsRegistry()
        c = reg.counter("rounds_completed")
        c.inc()
        reg.snapshot(0)
        c.inc()
        reg.snapshot(1)
        assert [s["round"] for s in reg.snapshots] == [0, 1]
        assert reg.snapshots[0]["values"]["rounds_completed"] == 1.0
        assert reg.snapshots[1]["values"]["rounds_completed"] == 2.0

    def test_json_export(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("wire_bits", kind="sparse").inc(42)
        reg.histogram("t", buckets=(1.0,)).observe(0.5)
        reg.snapshot(0)
        path = tmp_path / "metrics.json"
        reg.export_json(path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        by_name = {(m["name"], tuple(m["labels"].items())): m for m in doc["metrics"]}
        assert by_name[("wire_bits", (("kind", "sparse"),))]["value"] == 42
        hist = by_name[("t", ())]
        assert hist["count"] == 1 and hist["buckets"][0]["count"] == 1
        assert doc["snapshots"][0]["round"] == 0

    def test_json_export_holds_gauges_and_every_histogram_bucket(self):
        reg = MetricsRegistry()
        depth = reg.gauge("ingress_depth")
        depth.set(5)
        depth.set(3)
        hist = reg.histogram("task_seconds", buckets=(0.1, 1.0))
        hist.observe(0.5)
        hist.observe(2.0)
        by_name = {m["name"]: m for m in reg.to_dict()["metrics"]}
        assert by_name["ingress_depth"]["value"] == 3
        assert by_name["ingress_depth"]["peak"] == 5
        task = by_name["task_seconds"]
        assert (task["count"], task["sum"], task["min"], task["max"]) == (2, 2.5, 0.5, 2.0)
        # Per-bucket counts, with +inf closing the series.
        assert [(b["le"], b["count"]) for b in task["buckets"]] == [
            (0.1, 0), (1.0, 1), (float("inf"), 1),
        ]

