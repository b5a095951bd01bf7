"""Chart-kit contracts: determinism, escaping, scales, and input guards."""

from __future__ import annotations

import pytest

from repro.report.svg import (
    Frame,
    esc,
    fmt_num,
    nice_ticks,
    series_color,
    sparkline,
    svg_bars,
    svg_heatmap,
    svg_plot,
    svg_timeline,
)
from repro.viz.ascii import fmt_bytes


class TestHelpers:
    def test_esc_covers_xml_specials(self):
        assert esc('<a & "b">') == "&lt;a &amp; &quot;b&quot;&gt;"

    def test_fmt_num_ints_stay_ints(self):
        assert fmt_num(3.0) == "3"
        assert fmt_num(0.0) == "0"
        assert fmt_num(0.123456) == "0.1235"

    def test_fmt_bytes_scales(self):
        assert fmt_bytes(512) == "512B"
        assert fmt_bytes(2.5e6) == "2.5MB"

    def test_series_color_wraps_fixed_slots(self):
        assert series_color(0) == "var(--c0)"
        assert series_color(9) == "var(--c1)"

    def test_nice_ticks_cover_range_with_round_steps(self):
        ticks = nice_ticks(0.0, 1.0)
        assert ticks[0] >= 0.0 and ticks[-1] <= 1.0
        assert len(ticks) >= 3
        steps = {round(b - a, 9) for a, b in zip(ticks, ticks[1:])}
        assert len(steps) == 1  # uniform spacing

    def test_nice_ticks_degenerate_range(self):
        assert nice_ticks(2.0, 2.0)  # must not divide by zero


class TestPlot:
    def test_plot_is_deterministic(self):
        series = {"a": ([0, 1, 2], [0.1, 0.2, 0.3])}
        assert svg_plot(series) == svg_plot(series)

    def test_plot_requires_series(self):
        with pytest.raises(ValueError, match="at least one series"):
            svg_plot({})

    def test_plot_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            svg_plot({"a": ([0, 1], [0.1])})

    def test_kinds_render_distinct_marks(self):
        series = {
            "line": ([0, 1], [0.0, 1.0]),
            "step": ([0, 1], [0.5, 0.7]),
            "dots": ([0, 1], [0.2, 0.4]),
        }
        out = svg_plot(series, kinds={"step": "step", "dots": "scatter"})
        assert 'class="line"' in out
        assert "H" in out and "V" in out  # step path commands
        assert out.count('class="dot"') >= 4  # scatter points + end markers

    def test_every_point_has_native_tooltip(self):
        out = svg_plot({"acc": ([0, 1, 2], [0.1, 0.2, 0.3])})
        assert out.count("<title>") == 3

    def test_no_external_urls_beyond_svg_namespace(self):
        out = svg_plot({"a": ([0, 1], [0, 1])})
        assert out.replace("http://www.w3.org/2000/svg", "").count("http") == 0


class TestBars:
    def test_bars_show_label_value_and_tooltip(self):
        out = svg_bars({"uplink": 12.0, "downlink": 4.0}, unit="s")
        assert "uplink" in out and "12s" in out
        assert out.count("<title>") == 2

    def test_bars_reject_empty_and_negative(self):
        with pytest.raises(ValueError):
            svg_bars({})
        with pytest.raises(ValueError, match=">= 0"):
            svg_bars({"a": -1.0})

    def test_all_zero_bars_render(self):
        assert "a: 0" in svg_bars({"a": 0.0})


class TestHeatmap:
    def test_missing_cells_render_muted_dashes(self):
        out = svg_heatmap(
            [1, 2], ["x", "y"], {(1, "x"): 0.5, (2, "y"): 0.9}
        )
        assert out.count("--") == 2
        assert out.count("<rect") == 2

    def test_extremes_take_ramp_ends_and_flip_label_ink(self):
        out = svg_heatmap([1, 2], ["r"], {(1, "r"): 0.0, (2, "r"): 1.0})
        assert "#cde2fb" in out  # lightest step → ink label
        assert "#0d366b" in out  # darkest step → white label
        assert 'fill="#ffffff"' in out and 'fill="#0b0b0b"' in out

    def test_requires_cells(self):
        with pytest.raises(ValueError):
            svg_heatmap([1], ["a"], {})


class TestTimeline:
    def test_spans_clamp_to_window(self):
        lanes = [("main", [(-1.0, 0.5, "early", "sim"), (0.2, 0.4, "in", "exec")])]
        out = svg_timeline(lanes, t0=0.0, t1=1.0)
        assert "early" in out and "in" in out

    def test_category_colors_are_fixed_slots(self):
        lanes = [("main", [(0.0, 0.5, "a", "sim"), (0.5, 1.0, "b", "net")])]
        out = svg_timeline(lanes, t0=0.0, t1=1.0)
        assert "var(--c0)" in out  # sim
        assert "var(--c2)" in out  # net

    def test_requires_lanes(self):
        with pytest.raises(ValueError):
            svg_timeline([], t0=0.0, t1=1.0)


class TestSparkline:
    def test_empty_series_degrades_to_placeholder(self):
        assert sparkline([]) == '<span class="muted">--</span>'

    def test_flat_series_renders(self):
        assert "<svg" in sparkline([1.0, 1.0, 1.0])


class TestFrame:
    def test_degenerate_extents_widen(self):
        fr = Frame(x_lo=1.0, x_hi=1.0, y_lo=2.0, y_hi=2.0)
        assert fr.x_hi > fr.x_lo and fr.y_hi > fr.y_lo

    def test_coordinates_round_to_two_decimals(self):
        fr = Frame(x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=1.0)
        axes = fr.axes()
        assert axes == fr.axes()  # pure function of the frame
