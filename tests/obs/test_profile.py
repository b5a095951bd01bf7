"""Hot-spot self-time profiling and lane utilization."""

from __future__ import annotations

from repro.obs import Span
from repro.obs.profile import format_profile, lane_utilization, profile_spans


def span(name, start, end, tid=0, cat="sim"):
    return Span(name=name, cat=cat, start=start, end=end, tid=tid)


class TestSelfTime:
    def test_nested_spans_attribute_self_time_to_children(self):
        spans = [
            span("round", 0.0, 10.0),
            span("train", 1.0, 4.0),
            span("aggregate", 5.0, 9.0),
        ]
        by_name = {h.name: h for h in profile_spans(spans)}
        assert by_name["round"].total_s == 10.0
        assert by_name["round"].self_s == 10.0 - 3.0 - 4.0
        assert by_name["train"].self_s == 3.0
        assert by_name["aggregate"].self_s == 4.0

    def test_grandchildren_subtract_from_immediate_parent_only(self):
        spans = [
            span("round", 0.0, 10.0),
            span("train", 1.0, 6.0),
            span("io", 2.0, 3.0),  # nested inside train
        ]
        by_name = {h.name: h for h in profile_spans(spans)}
        assert by_name["round"].self_s == 5.0  # 10 - train(5)
        assert by_name["train"].self_s == 4.0  # 5 - io(1)
        assert by_name["io"].self_s == 1.0

    def test_lanes_are_independent(self):
        spans = [
            span("task", 0.0, 4.0, tid=1),
            span("task", 0.0, 4.0, tid=2),  # same times, other lane: no nesting
        ]
        (hot,) = profile_spans(spans)
        assert hot.count == 2
        assert hot.self_s == 8.0

    def test_ranking_and_top(self):
        spans = [span("big", 0.0, 9.0), span("small", 10.0, 11.0)]
        ranked = profile_spans(spans)
        assert [h.name for h in ranked] == ["big", "small"]
        assert [h.name for h in profile_spans(spans, top=1)] == ["big"]


class TestUtilization:
    def test_busy_fraction_merges_overlaps(self):
        spans = [
            span("a", 0.0, 4.0, tid=1),
            span("b", 2.0, 6.0, tid=1),  # overlap 2-4 counted once
            span("c", 0.0, 10.0, tid=2),
        ]
        util = lane_utilization(spans)
        assert abs(util[1] - 0.6) < 1e-12  # 6s busy over 10s extent
        assert abs(util[2] - 1.0) < 1e-12

    def test_format_profile_renders_table(self):
        spans = [span("round", 0.0, 2.0), span("train", 0.5, 1.5)]
        text = format_profile(spans, top=5)
        assert "round" in text and "train" in text
        assert "lane" in text
        assert format_profile([]) == "trace contains no wall-clock spans"


class TestZeroDurationEdges:
    """Degenerate traces must yield well-defined values, not ZeroDivision."""

    def test_utilization_of_empty_trace_is_empty(self):
        assert lane_utilization([]) == {}

    def test_single_instant_span_is_zero_utilization(self):
        util = lane_utilization([span("tick", 1.0, 1.0)])
        assert util == {0: 0.0}

    def test_zero_extent_multi_lane_trace(self):
        spans = [span("a", 2.0, 2.0, tid=1), span("b", 2.0, 2.0, tid=2)]
        assert lane_utilization(spans) == {1: 0.0, 2: 0.0}

    def test_format_profile_on_single_instant_span(self):
        text = format_profile([span("tick", 1.0, 1.0)])
        assert "tick" in text
        assert "0.0%" in text  # share of a zero extent is defined as zero

    def test_profile_spans_on_zero_durations(self):
        (hot,) = profile_spans([span("tick", 1.0, 1.0)] * 3)
        assert hot.count == 3
        assert hot.total_s == hot.self_s == hot.mean_s == hot.max_s == 0.0
