"""Tests for the per-client span log."""

import pytest

from repro.simtime.events import ClientSpan, SpanLog


class TestSpanLog:
    def test_add_appends_in_order(self):
        log = SpanLog()
        first = log.add(0, "train", 0.0, 1.0, tag=3)
        log.add(1, "upload", 1.0, 2.0)
        assert len(log) == 2
        assert list(log)[0] == first == ClientSpan(cid=0, kind="train", start=0.0, end=1.0, tag=3)

    def test_rejects_inverted_span(self):
        with pytest.raises(ValueError):
            ClientSpan(cid=0, kind="train", start=2.0, end=1.0)
