"""Tests for the per-client span log."""

import pytest

from repro.simtime.events import ClientSpan, SpanLog


class TestSpanLog:
    def test_window_filters_overlap(self):
        log = SpanLog()
        log.add(0, "train", 0.0, 1.0)
        log.add(0, "upload", 1.0, 2.0)
        log.add(1, "train", 5.0, 6.0)
        assert len(log.window(0.5, 1.5)) == 2
        assert [s.cid for s in log.window(4.0, 7.0)] == [1]
        with pytest.raises(ValueError):
            log.window(2.0, 1.0)

    def test_for_client(self):
        log = SpanLog()
        log.add(0, "train", 0.0, 1.0, tag=3)
        log.add(1, "train", 0.0, 1.0)
        spans = log.for_client(0)
        assert len(spans) == 1 and spans[0].tag == 3

    def test_rejects_inverted_span(self):
        with pytest.raises(ValueError):
            ClientSpan(cid=0, kind="train", start=2.0, end=1.0)
