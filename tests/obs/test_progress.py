"""SweepProgress live status line: counts, ETA, rendering."""

from __future__ import annotations

import io

from repro.obs.progress import SweepProgress


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make(total=4, parallel=1):
    clock = FakeClock()
    stream = io.StringIO()
    prog = SweepProgress(total, parallel=parallel, stream=stream, clock=clock)
    return prog, clock, stream


class TestCounts:
    def test_lifecycle_counts(self):
        prog, clock, _ = make(total=3)
        prog.on_start("a")
        prog.on_start("b")
        assert prog.running == 2
        prog.on_result("a", {"ok": True})
        assert prog.done == 1 and prog.running == 1
        prog.on_result("b", None)
        assert prog.failed == 1 and prog.running == 0
        prog.on_result("c", {"ok": True}, cached=True)
        assert prog.cached == 1 and prog.done == 2

    def test_eta_uses_mean_cell_time_and_parallelism(self):
        prog, clock, _ = make(total=5, parallel=2)
        assert prog.eta_seconds() is None  # nothing finished yet
        prog.on_start("a")
        clock.now = 10.0
        prog.on_result("a", {"ok": True})
        # 4 cells left at 10 s/cell over 2 workers.
        assert abs(prog.eta_seconds() - 20.0) < 1e-9

    def test_cached_cells_do_not_skew_eta(self):
        prog, clock, _ = make(total=4)
        prog.on_start("a")
        clock.now = 8.0
        prog.on_result("a", {"ok": True})
        prog.on_result("b", {"ok": True}, cached=True)  # instant, never started
        assert abs(prog.eta_seconds() - 2 * 8.0) < 1e-9


class TestRendering:
    def test_line_contents(self):
        prog, clock, _ = make(total=4)
        prog.on_start("a")
        clock.now = 6.0
        prog.on_result("a", {"ok": True})
        prog.on_start("b")
        line = prog.line()
        assert "sweep 1/4" in line
        assert "1 running" in line
        assert "6.0s/cell" in line
        assert "eta" in line

    def test_render_is_carriage_return_line(self):
        prog, _, stream = make(total=2)
        prog.on_start("a")
        out = stream.getvalue()
        assert out.startswith("\r")
        assert "sweep 0/2" in out

    def test_close_ends_with_newline(self):
        prog, _, stream = make(total=1)
        prog.on_result("a", {"ok": True})
        prog.close()
        assert stream.getvalue().endswith("\n")

    def test_eta_formatting(self):
        prog, _, _ = make()
        assert prog._fmt_eta(75.0) == "1:15"
        assert prog._fmt_eta(3725.0) == "1:02:05"


class TestAllCachedSweep:
    """A fully-resumed sweep has zero live completions to average over."""

    def test_eta_is_zero_when_everything_was_cached(self):
        prog, _, _ = make(total=3)
        for name in ("a", "b", "c"):
            prog.on_result(name, {"ok": True}, cached=True)
        assert prog.eta_seconds() == 0.0

    def test_line_reports_cached_cells_without_rate(self):
        prog, _, stream = make(total=3)
        for name in ("a", "b", "c"):
            prog.on_result(name, {"ok": True}, cached=True)
        line = prog.line()
        assert "sweep 3/3" in line
        assert "3 cached" in line
        prog.close()
        assert stream.getvalue().endswith("\n")

    def test_eta_unknown_while_only_cached_cells_landed(self):
        prog, clock, _ = make(total=4)
        prog.on_result("a", {"ok": True}, cached=True)
        assert prog.eta_seconds() is None  # no timed completion yet
        prog.on_start("b")
        clock.now = 5.0
        prog.on_result("b", {"ok": True})
        assert prog.eta_seconds() is not None
