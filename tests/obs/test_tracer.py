"""Tracer span recording, Chrome-trace export, and round-trip loading."""

from __future__ import annotations

import json

import pytest

from repro.obs import NULL_TRACER, MetricsRegistry, Span, Tracer, load_trace
from repro.obs.tracer import VIRTUAL_PID, WALL_PID


class TestTracer:
    def test_span_context_manager_records_interval(self):
        tracer = Tracer()
        with tracer.span("work", cat="test", round=3):
            pass
        assert len(tracer.spans) == 1
        s = tracer.spans[0]
        assert s.name == "work"
        assert s.cat == "test"
        assert s.args == {"round": 3}
        assert s.end >= s.start

    def test_add_span_and_instant(self):
        tracer = Tracer()
        tracer.add_span("task", 1.0, 2.5, cat="exec", tid=42, cid=7)
        tracer.instant("evict", cat="pop", cid=9)
        assert tracer.spans[0].dur == 1.5
        assert tracer.spans[0].tid == 42
        assert tracer.instants[0].name == "evict"

    def test_chrome_export_structure(self, tmp_path):
        tracer = Tracer()
        tracer.name_lane(42, "worker-42")
        tracer.add_span("task", tracer.epoch, tracer.epoch + 0.5, tid=42)
        with tracer.span("outer"):
            pass
        path = tmp_path / "trace.json"
        tracer.export_chrome(path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert all(ev["pid"] == WALL_PID for ev in xs)
        # ts/dur are microseconds relative to the tracer epoch.
        task = next(ev for ev in xs if ev["name"] == "task")
        assert task["ts"] == 0.0
        assert abs(task["dur"] - 5e5) < 1.0
        names = [
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        ]
        assert "worker-42" in names

    def test_virtual_spans_export_as_second_process(self, tmp_path):
        class FakeSpan:
            def __init__(self, cid, kind, start, end, tag):
                self.cid, self.kind, self.start, self.end, self.tag = (
                    cid, kind, start, end, tag,
                )

        class FakeLog:
            spans = [FakeSpan(1, "train", 0.0, 2.0, 0), FakeSpan(1, "upload", 2.0, 3.0, 0)]

        tracer = Tracer()
        tracer.add_virtual_spans(FakeLog())
        doc = tracer.to_chrome()
        virt = [ev for ev in doc["traceEvents"] if ev.get("pid") == VIRTUAL_PID]
        assert any(ev["ph"] == "X" and ev["name"] == "train" for ev in virt)

    def test_load_trace_round_trips_chrome(self, tmp_path):
        tracer = Tracer()
        tracer.add_span("a", tracer.epoch + 0.1, tracer.epoch + 0.3, cat="c", tid=5)
        chrome = tmp_path / "t.json"
        tracer.export_chrome(chrome)
        spans = load_trace(chrome)
        assert len(spans) == 1
        s = spans[0]
        assert isinstance(s, Span)
        assert s.name == "a" and s.tid == 5
        assert abs(s.dur - 0.2) < 1e-6

    @pytest.mark.parametrize(
        "name, text",
        [
            # The JSONL event stream older runs wrote beside the Chrome trace.
            ("t.jsonl", '{"type": "span", "name": "a", "cat": "c", "t0": 0.1, "t1": 0.3, "tid": 5}\n'
                        '{"type": "instant", "name": "i", "cat": "c", "t": 0.2, "tid": 5}\n'),
            # One line of it parses as a JSON document, but not a trace.
            ("one.jsonl", '{"type": "span", "name": "a", "cat": "c", "t0": 0.1, "t1": 0.3, "tid": 5}\n'),
            ("m.json", json.dumps(MetricsRegistry().to_dict())),
            ("list.json", "[1, 2]"),
        ],
        ids=["jsonl", "one-line-jsonl", "metrics-json", "list-of-non-events"],
    )
    def test_load_trace_refuses_other_formats(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match="not a Chrome trace"):
            load_trace(path)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", cat="x", k=1) as cm:
            assert cm is not None
        NULL_TRACER.add_span("a", 0, 1)
        NULL_TRACER.instant("i")
        assert NULL_TRACER.spans == ()
        assert not NULL_TRACER.enabled
        # The disabled path hands out one shared context manager.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
