"""Self-contained HTML experiment reports (inline SVG + CSS, no deps).

The pipeline is artifact → section → SVG: :mod:`repro.report.svg` is the
chart kit (one axis/scale layer shared by line/step/scatter/bar/heatmap/
timeline primitives), :mod:`repro.report
.sections` renders one ``<section>`` per artifact kind, and :func:`render_
report` assembles whichever artifacts exist into one byte-deterministic
page. CLI entry points: ``--html PATH`` on ``run``/``comm``/``sweep``/
``scenario run``, and the post-hoc ``report`` verb.
"""

from repro.report.page import PAGE_CSS, render_report, write_report
from repro.report.sections import (
    history_section,
    manifest_section,
    metrics_section,
    sweep_section,
    trace_section,
)
from repro.report.svg import (
    Frame,
    nice_ticks,
    series_color,
    sparkline,
    svg_bars,
    svg_heatmap,
    svg_plot,
    svg_timeline,
)

__all__ = [
    "PAGE_CSS",
    "render_report",
    "write_report",
    "manifest_section",
    "history_section",
    "sweep_section",
    "trace_section",
    "metrics_section",
    "Frame",
    "nice_ticks",
    "series_color",
    "sparkline",
    "svg_plot",
    "svg_bars",
    "svg_heatmap",
    "svg_timeline",
]
